// Package tpch reproduces the paper's TPC-H workload (§V-C): a
// dbgen-compatible data generator with the standard eight tables at a
// configurable scale factor, all 22 queries as hand-built plans over the
// internal/db engine, and the per-query offload plumbing (planner
// consultation plus NDP-first join ordering) that Fig. 8 and Fig. 10
// measure.
//
// Scaling substitution: the paper runs SF 100 (~160 GiB); this
// reproduction defaults to small SFs so simulations finish quickly.
// Speed-ups are ratios and scale with table size, so the *shape* of the
// results is preserved; EXPERIMENTS.md records the SF of each run. One
// deliberate deviation from stock dbgen: orders (and hence lineitems)
// are generated in o_orderdate order, the append order of a production
// fact table, which gives date predicates page-level locality.
package tpch

import (
	"fmt"
	"math/rand"

	"biscuit"
	"biscuit/internal/db"
)

// Gen configures the generator.
type Gen struct {
	SF float64
}

// Data holds the loaded catalog.
type Data struct {
	DB *db.Database

	Region, Nation, Supplier, Customer, Part, PartSupp, Orders, Lineitem *db.Table
}

// Standard TPC-H domains.
var (
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations = []struct {
		name   string
		region int
	}{
		{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1}, {"EGYPT", 4},
		{"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3}, {"INDIA", 2}, {"INDONESIA", 2},
		{"IRAN", 4}, {"IRAQ", 4}, {"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0},
		{"MOROCCO", 0}, {"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
		{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3}, {"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
	}
	segments    = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes   = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs   = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	types1      = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	types2      = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	types3      = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	containers1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	colors      = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched",
		"blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate",
		"coral", "cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim", "dodger",
		"drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
		"green", "grey", "honeydew", "hot", "hotpink", "indian", "ivory", "khaki", "lace",
		"lavender", "lawn", "lemon", "light", "lime", "linen", "magenta", "maroon", "medium",
		"metallic", "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
		"orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple",
		"red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell", "sienna", "sky",
		"slate", "smoke", "snow", "spring", "steel", "tan", "thistle", "tomato", "turquoise",
		"violet", "wheat", "white", "yellow",
	}
	// Comment vocabulary is deliberately disjoint from predicate
	// literals so the matcher's page-level false positives stay modest.
	commentWords = []string{
		"packages", "deposits", "requests", "accounts", "instructions", "theodolites", "dependencies",
		"foxes", "pinto", "beans", "ideas", "platelets", "asymptotes", "courts", "dolphins",
		"multipliers", "sauternes", "warthogs", "frays", "dugouts",
	}
	// specialComment appears in ~1% of order comments so Q13's NOT LIKE
	// has something to exclude.
	specialComment = "special requests"
)

// StartDate and EndDate bound o_orderdate (standard TPC-H range).
var (
	startDate = db.MustDate("1992-01-01")
	endDate   = db.MustDate("1998-08-02")
)

// Schemas for the eight tables.
var (
	RegionSchema = db.NewSchema(
		db.Column{Name: "r_regionkey", T: db.TInt},
		db.Column{Name: "r_name", T: db.TString},
		db.Column{Name: "r_comment", T: db.TString},
	)
	NationSchema = db.NewSchema(
		db.Column{Name: "n_nationkey", T: db.TInt},
		db.Column{Name: "n_name", T: db.TString},
		db.Column{Name: "n_regionkey", T: db.TInt},
		db.Column{Name: "n_comment", T: db.TString},
	)
	SupplierSchema = db.NewSchema(
		db.Column{Name: "s_suppkey", T: db.TInt},
		db.Column{Name: "s_name", T: db.TString},
		db.Column{Name: "s_address", T: db.TString},
		db.Column{Name: "s_nationkey", T: db.TInt},
		db.Column{Name: "s_phone", T: db.TString},
		db.Column{Name: "s_acctbal", T: db.TDecimal},
		db.Column{Name: "s_comment", T: db.TString},
	)
	CustomerSchema = db.NewSchema(
		db.Column{Name: "c_custkey", T: db.TInt},
		db.Column{Name: "c_name", T: db.TString},
		db.Column{Name: "c_address", T: db.TString},
		db.Column{Name: "c_nationkey", T: db.TInt},
		db.Column{Name: "c_phone", T: db.TString},
		db.Column{Name: "c_acctbal", T: db.TDecimal},
		db.Column{Name: "c_mktsegment", T: db.TString},
		db.Column{Name: "c_comment", T: db.TString},
	)
	PartSchema = db.NewSchema(
		db.Column{Name: "p_partkey", T: db.TInt},
		db.Column{Name: "p_name", T: db.TString},
		db.Column{Name: "p_mfgr", T: db.TString},
		db.Column{Name: "p_brand", T: db.TString},
		db.Column{Name: "p_type", T: db.TString},
		db.Column{Name: "p_size", T: db.TInt},
		db.Column{Name: "p_container", T: db.TString},
		db.Column{Name: "p_retailprice", T: db.TDecimal},
		db.Column{Name: "p_comment", T: db.TString},
	)
	PartSuppSchema = db.NewSchema(
		db.Column{Name: "ps_partkey", T: db.TInt},
		db.Column{Name: "ps_suppkey", T: db.TInt},
		db.Column{Name: "ps_availqty", T: db.TInt},
		db.Column{Name: "ps_supplycost", T: db.TDecimal},
		db.Column{Name: "ps_comment", T: db.TString},
	)
	OrdersSchema = db.NewSchema(
		db.Column{Name: "o_orderkey", T: db.TInt},
		db.Column{Name: "o_custkey", T: db.TInt},
		db.Column{Name: "o_orderstatus", T: db.TString},
		db.Column{Name: "o_totalprice", T: db.TDecimal},
		db.Column{Name: "o_orderdate", T: db.TDate},
		db.Column{Name: "o_orderpriority", T: db.TString},
		db.Column{Name: "o_clerk", T: db.TString},
		db.Column{Name: "o_shippriority", T: db.TInt},
		db.Column{Name: "o_comment", T: db.TString},
	)
	LineitemSchema = db.NewSchema(
		db.Column{Name: "l_orderkey", T: db.TInt},
		db.Column{Name: "l_partkey", T: db.TInt},
		db.Column{Name: "l_suppkey", T: db.TInt},
		db.Column{Name: "l_linenumber", T: db.TInt},
		db.Column{Name: "l_quantity", T: db.TInt},
		db.Column{Name: "l_extendedprice", T: db.TDecimal},
		db.Column{Name: "l_discount", T: db.TDecimal},
		db.Column{Name: "l_tax", T: db.TDecimal},
		db.Column{Name: "l_returnflag", T: db.TString},
		db.Column{Name: "l_linestatus", T: db.TString},
		db.Column{Name: "l_shipdate", T: db.TDate},
		db.Column{Name: "l_commitdate", T: db.TDate},
		db.Column{Name: "l_receiptdate", T: db.TDate},
		db.Column{Name: "l_shipinstruct", T: db.TString},
		db.Column{Name: "l_shipmode", T: db.TString},
		db.Column{Name: "l_comment", T: db.TString},
	)
)

func scaled(base int, sf float64, min int) int {
	n := int(float64(base) * sf)
	if n < min {
		n = min
	}
	return n
}

func comment(rng *rand.Rand, words int) string {
	s := ""
	for i := 0; i < words; i++ {
		if i > 0 {
			s += " "
		}
		s += commentWords[rng.Intn(len(commentWords))]
	}
	return s
}

func phone(rng *rand.Rand, nation int) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", 10+nation, 100+rng.Intn(900), 100+rng.Intn(900), 1000+rng.Intn(9000))
}

// rowSink is the destination of one generated table. The generator
// writes every table through exactly one sink, so the same generation
// pass can feed any shard router (see LoadShards, LoadShardsReplica)
// without disturbing the rng draw order that fixes table contents.
type rowSink interface {
	Add(db.Row) error
	Close() error
}

// sinkMaker opens the sink for one named table.
type sinkMaker func(name string, sch *db.Schema, batchPages int) (rowSink, error)

// Load generates all eight tables at g.SF into d. The caller injects
// the seeded rng, so table contents are a pure function of
// (SF, rng state) — see TestLoadDeterministic. It is the 1-way
// LoadShards.
func (g Gen) Load(h *biscuit.Host, d *db.Database, rng *rand.Rand) (*Data, error) {
	shards, err := g.LoadShards([]*biscuit.Host{h}, []*db.Database{d}, rng)
	if err != nil {
		return nil, err
	}
	return shards[0], nil
}

// tablesOf resolves the eight loaded tables of d into a Data catalog.
func tablesOf(d *db.Database) *Data {
	return &Data{
		DB:       d,
		Region:   d.Table("region"),
		Nation:   d.Table("nation"),
		Supplier: d.Table("supplier"),
		Customer: d.Table("customer"),
		Part:     d.Table("part"),
		PartSupp: d.Table("partsupp"),
		Orders:   d.Table("orders"),
		Lineitem: d.Table("lineitem"),
	}
}

// generate is the single generation pass behind every loader:
// all rng draws happen here, in a fixed order independent of where the
// rows land.
func (g Gen) generate(mk sinkMaker, rng *rand.Rand) error {
	// region
	lr, err := mk("region", RegionSchema, 4)
	if err != nil {
		return err
	}
	for i, r := range regions {
		if err := lr.Add(db.Row{db.Int(int64(i)), db.Str(r), db.Str(comment(rng, 4))}); err != nil {
			return err
		}
	}
	if err := lr.Close(); err != nil {
		return err
	}

	// nation
	ln, err := mk("nation", NationSchema, 4)
	if err != nil {
		return err
	}
	for i, n := range nations {
		if err := ln.Add(db.Row{db.Int(int64(i)), db.Str(n.name), db.Int(int64(n.region)), db.Str(comment(rng, 4))}); err != nil {
			return err
		}
	}
	if err := ln.Close(); err != nil {
		return err
	}

	// supplier
	nSupp := scaled(10000, g.SF, 20)
	ls, err := mk("supplier", SupplierSchema, 16)
	if err != nil {
		return err
	}
	for i := 0; i < nSupp; i++ {
		nat := rng.Intn(25)
		cmt := comment(rng, 5)
		if i%200 == 13 { // Q16/Q21 complaint suppliers
			cmt += " Customer Complaints"
		}
		if err := ls.Add(db.Row{
			db.Int(int64(i + 1)),
			db.Str(fmt.Sprintf("Supplier#%09d", i+1)),
			db.Str(fmt.Sprintf("addr %d %s", rng.Intn(999), commentWords[rng.Intn(len(commentWords))])),
			db.Int(int64(nat)),
			db.Str(phone(rng, nat)),
			db.Dec(int64(rng.Intn(2000000) - 100000)),
			db.Str(cmt),
		}); err != nil {
			return err
		}
	}
	if err := ls.Close(); err != nil {
		return err
	}

	// part
	nPart := scaled(200000, g.SF, 200)
	lp, err := mk("part", PartSchema, 32)
	if err != nil {
		return err
	}
	for i := 0; i < nPart; i++ {
		name := colors[rng.Intn(len(colors))] + " " + colors[rng.Intn(len(colors))] + " " +
			colors[rng.Intn(len(colors))] + " " + colors[rng.Intn(len(colors))] + " " + colors[rng.Intn(len(colors))]
		mfgr := 1 + rng.Intn(5)
		brand := mfgr*10 + 1 + rng.Intn(5)
		if err := lp.Add(db.Row{
			db.Int(int64(i + 1)),
			db.Str(name),
			db.Str(fmt.Sprintf("Manufacturer#%d", mfgr)),
			db.Str(fmt.Sprintf("Brand#%d", brand)),
			db.Str(types1[rng.Intn(6)] + " " + types2[rng.Intn(5)] + " " + types3[rng.Intn(5)]),
			db.Int(int64(1 + rng.Intn(50))),
			db.Str(containers1[rng.Intn(5)] + " " + containers2[rng.Intn(8)]),
			db.Dec(int64(90000 + (i%200)*10 + rng.Intn(1000))),
			db.Str(comment(rng, 3)),
		}); err != nil {
			return err
		}
	}
	if err := lp.Close(); err != nil {
		return err
	}

	// partsupp: 4 suppliers per part
	lps, err := mk("partsupp", PartSuppSchema, 32)
	if err != nil {
		return err
	}
	for i := 0; i < nPart; i++ {
		for j := 0; j < 4; j++ {
			supp := (i+j*(nSupp/4+1))%nSupp + 1
			if err := lps.Add(db.Row{
				db.Int(int64(i + 1)),
				db.Int(int64(supp)),
				db.Int(int64(1 + rng.Intn(9999))),
				db.Dec(int64(100 + rng.Intn(99900))),
				db.Str(comment(rng, 6)),
			}); err != nil {
				return err
			}
		}
	}
	if err := lps.Close(); err != nil {
		return err
	}

	// customer
	nCust := scaled(150000, g.SF, 150)
	lc, err := mk("customer", CustomerSchema, 32)
	if err != nil {
		return err
	}
	for i := 0; i < nCust; i++ {
		nat := rng.Intn(25)
		if err := lc.Add(db.Row{
			db.Int(int64(i + 1)),
			db.Str(fmt.Sprintf("Customer#%09d", i+1)),
			db.Str(fmt.Sprintf("addr %d %s", rng.Intn(999), commentWords[rng.Intn(len(commentWords))])),
			db.Int(int64(nat)),
			db.Str(phone(rng, nat)),
			db.Dec(int64(rng.Intn(2000000) - 100000)),
			db.Str(segments[rng.Intn(5)]),
			db.Str(comment(rng, 6)),
		}); err != nil {
			return err
		}
	}
	if err := lc.Close(); err != nil {
		return err
	}

	// orders + lineitem, generated in o_orderdate order (time-ordered
	// fact load; see package comment).
	nOrders := scaled(1500000, g.SF, 1500)
	totalDays := endDate.I - startDate.I
	lo, err := mk("orders", OrdersSchema, 64)
	if err != nil {
		return err
	}
	ll, err := mk("lineitem", LineitemSchema, 64)
	if err != nil {
		return err
	}
	for i := 0; i < nOrders; i++ {
		okey := int64(i + 1)
		odate := startDate.I + int64(i)*totalDays/int64(nOrders)
		nLines := 1 + rng.Intn(7)
		var total int64
		status := "O"
		allF := true
		rows := make([]db.Row, 0, nLines)
		for ln := 0; ln < nLines; ln++ {
			qty := int64(1 + rng.Intn(50))
			price := int64(90000+rng.Intn(11000)) * qty / 10
			disc := int64(rng.Intn(11)) // 0.00..0.10
			tax := int64(rng.Intn(9))   // 0.00..0.08
			ship := odate + int64(1+rng.Intn(121))
			commit := odate + int64(30+rng.Intn(61))
			receipt := ship + int64(1+rng.Intn(30))
			cur := db.MustDate("1995-06-17").I
			rf := "N"
			if receipt <= cur {
				if rng.Intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			}
			lst := "O"
			if ship <= cur {
				lst = "F"
			} else {
				allF = false
			}
			total += price * (100 - disc) / 100
			rows = append(rows, db.Row{
				db.Int(okey),
				db.Int(int64(1 + rng.Intn(nPart))),
				db.Int(int64(1 + rng.Intn(nSupp))),
				db.Int(int64(ln + 1)),
				db.Int(qty),
				db.Dec(price),
				db.Dec(disc),
				db.Dec(tax),
				db.Str(rf),
				db.Str(lst),
				db.Value{T: db.TDate, I: ship},
				db.Value{T: db.TDate, I: commit},
				db.Value{T: db.TDate, I: receipt},
				db.Str(instructs[rng.Intn(4)]),
				db.Str(shipmodes[rng.Intn(7)]),
				db.Str(comment(rng, 4)),
			})
		}
		if allF {
			status = "F"
		} else if rng.Intn(4) == 0 {
			status = "P"
		}
		ocmt := comment(rng, 5)
		if rng.Intn(100) == 0 {
			ocmt += " " + specialComment
		}
		if err := lo.Add(db.Row{
			db.Int(okey),
			db.Int(int64(1 + rng.Intn(nCust))),
			db.Str(status),
			db.Dec(total),
			db.Value{T: db.TDate, I: odate},
			db.Str(priorities[rng.Intn(5)]),
			db.Str(fmt.Sprintf("Clerk#%09d", 1+rng.Intn(1000))),
			db.Int(0),
			db.Str(ocmt),
		}); err != nil {
			return err
		}
		for _, r := range rows {
			if err := ll.Add(r); err != nil {
				return err
			}
		}
	}
	if err := lo.Close(); err != nil {
		return err
	}
	return ll.Close()
}
