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
	"math/rand"
	"strconv"

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

// StartDate and EndDate bound o_orderdate (standard TPC-H range);
// currentDate splits shipped from open lineitems.
var (
	startDate   = db.MustDate("1992-01-01")
	endDate     = db.MustDate("1998-08-02")
	currentDate = db.MustDate("1995-06-17")
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

// comment joins `words` random comment words with spaces. They
// gather in a stack buffer, so the string is the one allocation.
func comment(rng *rand.Rand, words int) string {
	var buf [96]byte
	b := buf[:0]
	for i := 0; i < words; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, commentWords[rng.Intn(len(commentWords))]...)
	}
	return string(b)
}

// phone draws a nation's phone number, NN-NNN-NNN-NNNN: every field
// already has its full width, so no digit needs padding.
func phone(rng *rand.Rand, nation int) string {
	var buf [15]byte
	b := strconv.AppendInt(buf[:0], int64(10+nation), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(100+rng.Intn(900)), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(100+rng.Intn(900)), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(1000+rng.Intn(9000)), 10)
	return string(b)
}

// addr draws a street address: a house number, then a word.
func addr(rng *rand.Rand) string {
	num := rng.Intn(999)
	return "addr " + strconv.Itoa(num) + " " + commentWords[rng.Intn(len(commentWords))]
}

// numbered is prefix then v zero-padded to nine digits, the key names
// dbgen writes ("Supplier#000000001").
func numbered(prefix string, v int) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	for p := 100000000; p > 1 && v < p; p /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(v), 10))
}

// rowSink is the destination of one generated table. The generator
// writes every table through exactly one sink, so the same generation
// pass can feed any shard router (see LoadShards)
// without disturbing the rng draw order that fixes table contents.
// Add encodes its row before it returns and keeps no reference to it:
// the generator refills one row for the next Add.
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
	shards, _, err := g.LoadShards([]*biscuit.Host{h}, []*db.Database{d}, rng, false)
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
	var row db.Row // refilled for every Add (see rowSink)

	// region
	lr, err := mk("region", RegionSchema, 4)
	if err != nil {
		return err
	}
	for i, r := range regions {
		row = append(row[:0], db.Int(int64(i)), db.Str(r), db.Str(comment(rng, 4)))
		if err := lr.Add(row); err != nil {
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
		row = append(row[:0], db.Int(int64(i)), db.Str(n.name), db.Int(int64(n.region)), db.Str(comment(rng, 4)))
		if err := ln.Add(row); err != nil {
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
		row = append(row[:0],
			db.Int(int64(i+1)),
			db.Str(numbered("Supplier#", i+1)),
			db.Str(addr(rng)),
			db.Int(int64(nat)),
			db.Str(phone(rng, nat)),
			db.Dec(int64(rng.Intn(2000000)-100000)),
			db.Str(cmt),
		)
		if err := ls.Add(row); err != nil {
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
		row = append(row[:0],
			db.Int(int64(i+1)),
			db.Str(name),
			db.Str("Manufacturer#"+strconv.Itoa(mfgr)),
			db.Str("Brand#"+strconv.Itoa(brand)),
			db.Str(types1[rng.Intn(6)]+" "+types2[rng.Intn(5)]+" "+types3[rng.Intn(5)]),
			db.Int(int64(1+rng.Intn(50))),
			db.Str(containers1[rng.Intn(5)]+" "+containers2[rng.Intn(8)]),
			db.Dec(int64(90000+(i%200)*10+rng.Intn(1000))),
			db.Str(comment(rng, 3)),
		)
		if err := lp.Add(row); err != nil {
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
			row = append(row[:0],
				db.Int(int64(i+1)),
				db.Int(int64(supp)),
				db.Int(int64(1+rng.Intn(9999))),
				db.Dec(int64(100+rng.Intn(99900))),
				db.Str(comment(rng, 6)),
			)
			if err := lps.Add(row); err != nil {
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
		row = append(row[:0],
			db.Int(int64(i+1)),
			db.Str(numbered("Customer#", i+1)),
			db.Str(addr(rng)),
			db.Int(int64(nat)),
			db.Str(phone(rng, nat)),
			db.Dec(int64(rng.Intn(2000000)-100000)),
			db.Str(segments[rng.Intn(5)]),
			db.Str(comment(rng, 6)),
		)
		if err := lc.Add(row); err != nil {
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
	// An order's lineitems are drawn before the order row (its total
	// and status sum over them) and added after it; these rows hold
	// them in between and are refilled by the next order.
	var lines [7]db.Row
	for i := 0; i < nOrders; i++ {
		okey := int64(i + 1)
		odate := startDate.I + int64(i)*totalDays/int64(nOrders)
		nLines := 1 + rng.Intn(7)
		var total int64
		status := "O"
		allF := true
		for ln := 0; ln < nLines; ln++ {
			qty := int64(1 + rng.Intn(50))
			price := int64(90000+rng.Intn(11000)) * qty / 10
			disc := int64(rng.Intn(11)) // 0.00..0.10
			tax := int64(rng.Intn(9))   // 0.00..0.08
			ship := odate + int64(1+rng.Intn(121))
			commit := odate + int64(30+rng.Intn(61))
			receipt := ship + int64(1+rng.Intn(30))
			rf := "N"
			if receipt <= currentDate.I {
				if rng.Intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			}
			lst := "O"
			if ship <= currentDate.I {
				lst = "F"
			} else {
				allF = false
			}
			total += price * (100 - disc) / 100
			lines[ln] = append(lines[ln][:0],
				db.Int(okey),
				db.Int(int64(1+rng.Intn(nPart))),
				db.Int(int64(1+rng.Intn(nSupp))),
				db.Int(int64(ln+1)),
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
			)
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
		row = append(row[:0],
			db.Int(okey),
			db.Int(int64(1+rng.Intn(nCust))),
			db.Str(status),
			db.Dec(total),
			db.Value{T: db.TDate, I: odate},
			db.Str(priorities[rng.Intn(5)]),
			db.Str(numbered("Clerk#", 1+rng.Intn(1000))),
			db.Int(0),
			db.Str(ocmt),
		)
		if err := lo.Add(row); err != nil {
			return err
		}
		for _, r := range lines[:nLines] {
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
