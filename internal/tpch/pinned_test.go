package tpch

import (
	"fmt"
	"testing"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/stats"
)

// answerDigest folds a result set into an FNV-1a digest, cell by cell:
// each cell's type and its printed value, each row closed by an empty
// record. Two results digest alike only if they hold the same typed
// cells in the same order.
func answerDigest(rows []db.Row) string {
	var d stats.Digest
	for _, r := range rows {
		for _, v := range r {
			d.AddInt64(int64(v.T))
			d.AddRecord(v.String())
		}
		d.AddRecord("")
	}
	return fmt.Sprintf("%016x", d.Sum64())
}

// pinnedAnswers holds every query's answer on testData as its
// answerDigest, recorded once and held against both plans.
// TestAllQueriesConvVsBiscuit only compares the two plans with each other,
// so a change that broke both alike — a column mask that drops a cell both
// plans read — would pass it; it cannot pass these. Q2, Q11, Q20 and Q22
// select nothing at this scale: their digest is the empty result's.
var pinnedAnswers = [22]string{
	"9481353a4eb7ee05", // Q1
	"cbf29ce484222325", // Q2
	"d64d36753213cb4b", // Q3
	"3172e41b99f1ad97", // Q4
	"8fc0db0449397439", // Q5
	"a5ed8912837d3ad3", // Q6
	"b093163de955ec45", // Q7
	"218634ffe6483dff", // Q8
	"217b580968b651b3", // Q9
	"79f442edc33082e7", // Q10
	"cbf29ce484222325", // Q11
	"9b7e2dfe4d2cbfd3", // Q12
	"937428c564b67459", // Q13
	"c772616cb1e9b863", // Q14
	"d747461673a2fb37", // Q15
	"28acd71aa3c8414f", // Q16
	"3880556364de28ec", // Q17
	"c322711614b15c52", // Q18
	"699761dcf0325a1d", // Q19
	"cbf29ce484222325", // Q20
	"696d4d08c68224ad", // Q21
	"cbf29ce484222325", // Q22
}

// TestAllQueriesPinnedAnswers holds all 22 queries to their recorded
// answers under the Conv plan and the planner plan, at one row per
// batch, a batch size that divides nothing, and the default slab.
func TestAllQueriesPinnedAnswers(t *testing.T) {
	sys, data := testData(t)
	sys.Run(func(h *biscuit.Host) {
		for _, query := range All() {
			for _, planned := range []bool{false, true} {
				for _, batch := range []int{1, 7, 1024} {
					q := &QCtx{Ex: db.NewExec(h, data.DB), D: data}
					q.Ex.BatchSize = batch
					if planned {
						q.Pl = planner.Default()
					}
					rows, err := query.Run(q)
					if err != nil {
						t.Fatalf("Q%d (planned=%v, batch=%d): %v", query.ID, planned, batch, err)
					}
					if got, want := answerDigest(rows), pinnedAnswers[query.ID-1]; got != want {
						t.Errorf("Q%d (planned=%v, batch=%d): answer digest %s, pinned %s (%d rows)",
							query.ID, planned, batch, got, want, len(rows))
					}
				}
			}
		}
	})
}
