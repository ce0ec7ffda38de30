// Dbscan: the paper's "DB scan and filtering" experiment (§V-C, Fig. 8)
// as a library example. TPC-H's lineitem table is loaded, and the two
// illustration queries run through the mini DB engine twice: once on the
// conventional path and once with the planner offloading the filter to
// the SSD's pattern matcher.
//
//	go run ./examples/dbscan
package main

import (
	"fmt"
	"log"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/tpch"
)

func main() {
	sys := biscuit.NewSystem(biscuit.DefaultConfig())
	d := db.Open(sys)

	sys.Run(func(h *biscuit.Host) {
		data, err := tpch.Gen{SF: 0.02}.Load(h, d, biscuit.SeededRand(1))
		if err != nil {
			log.Fatal(err)
		}
		ls := data.Lineitem.Sch
		fmt.Printf("lineitem: %d rows, %d pages (%.1f MiB)\n\n",
			data.Lineitem.Rows, data.Lineitem.Pages, float64(data.Lineitem.Bytes())/(1<<20))

		queries := []struct {
			name string
			pred db.Expr
		}{
			{"Query 1: l_shipdate = '1995-01-17'",
				db.EqD(ls, "l_shipdate", "1995-01-17")},
			{"Query 2: (shipdate IN two days) AND (linenumber IN {1,2})",
				db.AndOf(
					db.OrOf(db.EqD(ls, "l_shipdate", "1995-01-17"), db.EqD(ls, "l_shipdate", "1995-01-18")),
					db.OrOf(
						db.Cmp{Op: db.EQ, L: db.C(ls, "l_linenumber"), R: db.Lit(db.Int(1))},
						db.Cmp{Op: db.EQ, L: db.C(ls, "l_linenumber"), R: db.Lit(db.Int(2))},
					),
				)},
		}
		for _, q := range queries {
			fmt.Println(q.name)

			exC := db.NewExec(h, d)
			t0 := h.Now()
			convRows, err := db.Collect(exC.NewConvScan(data.Lineitem, q.pred))
			if err != nil {
				log.Fatal(err)
			}
			exC.FlushCost()
			convT := h.Now() - t0

			exB := db.NewExec(h, d)
			pl := planner.Default()
			it, dec := pl.PlanScan(exB, data.Lineitem, q.pred)
			t0 = h.Now()
			biscRows, err := db.Collect(it)
			if err != nil {
				log.Fatal(err)
			}
			exB.FlushCost()
			biscT := h.Now() - t0

			if len(convRows) != len(biscRows) {
				log.Fatalf("result mismatch: %d vs %d rows", len(convRows), len(biscRows))
			}
			fmt.Printf("  planner: %s (keys %v)\n", dec.Reason, dec.Keys)
			fmt.Printf("  Conv    %12v  (%d pages over the link)\n", convT, exC.St.PagesOverLink)
			fmt.Printf("  Biscuit %12v  (%d pages over the link)\n", biscT, exB.St.PagesOverLink)
			fmt.Printf("  %d rows, speed-up %.1fx, I/O reduction %.1fx\n\n",
				len(convRows), float64(convT)/float64(biscT),
				float64(exC.St.PagesOverLink)/float64(exB.St.PagesOverLink))
		}
	})
}
