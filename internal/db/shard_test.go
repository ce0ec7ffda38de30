package db

import (
	"slices"
	"testing"

	"biscuit"
)

// shardAggFixture runs one grouped aggregation both ways — a single
// HashAggOp over all rows, and the ShardedAggPlan partial/merge path
// over an n-way row partition — and requires bit-equal results. Each
// shard listed in empty is forced to see no rows: the rows that would
// land on it are taken out of the data set, so the single-device
// reference aggregates exactly what the other shards saw.
func shardAggFixture(t *testing.T, nShards int, groupBy []Expr, names []string, aggs []Agg, empty ...int) {
	t.Helper()
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 3000, 50)
		ex := NewExec(h, d)
		all, err := Collect(ex.NewConvScan(tab, nil))
		if err != nil {
			t.Fatal(err)
		}
		all = slices.DeleteFunc(all, func(r Row) bool {
			return slices.Contains(empty, int(r[0].I%int64(nShards)))
		})

		single, err := Collect(&HashAggOp{Ex: ex, In: NewMemScan(tab.Sch, all),
			GroupBy: groupBy, GroupNms: names, Aggs: aggs})
		if err != nil {
			t.Fatal(err)
		}

		plan, err := NewShardedAggPlan(groupBy, names, aggs)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([][]Row, nShards)
		for _, r := range all {
			i := r[0].I % int64(nShards)
			shards[i] = append(shards[i], r)
		}
		partials := make([][]Row, nShards)
		for i, rows := range shards {
			partials[i], err = Collect(plan.ShardOp(ex, NewMemScan(tab.Sch, rows)))
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range empty {
			if len(shards[k]) != 0 {
				t.Fatalf("shard %d was to be empty, has %d rows", k, len(shards[k]))
			}
		}
		merged := plan.Merge(partials)

		if len(merged) != len(single) {
			t.Fatalf("merged %d groups, single %d", len(merged), len(single))
		}
		for i := range single {
			if len(merged[i]) != len(single[i]) {
				t.Fatalf("group %d: width %d vs %d", i, len(merged[i]), len(single[i]))
			}
			for j := range single[i] {
				a, b := single[i][j], merged[i][j]
				if a.T != b.T || a.I != b.I || a.S != b.S {
					t.Fatalf("group %d col %d: single %v, merged %v", i, j, a, b)
				}
			}
		}
	})
}

func TestShardedAggMatchesSingleDevice(t *testing.T) {
	sch := testSchema()
	note := C(sch, "note")
	price := C(sch, "price")
	id := C(sch, "id")
	aggs := []Agg{
		{F: Sum, Arg: price, Name: "sum_price"},
		{F: CountAgg, Name: "n"},
		{F: Avg, Arg: price, Name: "avg_price"},
		{F: Min, Arg: id, Name: "min_id"},
		{F: Max, Arg: id, Name: "max_id"},
	}
	for _, n := range []int{1, 2, 4} {
		shardAggFixture(t, n, []Expr{note}, []string{"note"}, aggs)
	}
}

func TestShardedScalarAggMatchesSingleDevice(t *testing.T) {
	sch := testSchema()
	price := C(sch, "price")
	aggs := []Agg{
		{F: Sum, Arg: price, Name: "revenue"},
		{F: Avg, Arg: price, Name: "avg_price"},
		{F: CountAgg, Name: "n"},
	}
	for _, n := range []int{1, 3} {
		shardAggFixture(t, n, nil, nil, aggs)
	}
}

func TestShardedScalarMinMaxWithEmptyShard(t *testing.T) {
	// Regression: a scalar shard that saw no rows still ships its one
	// all-zero partial row, and Merge used to fold that row in as a seen
	// value — Min/Max over a decimal or string column panicked comparing
	// int with decimal, and over an int column silently answered
	// min(..., 0). Such a shard must contribute nothing, whichever
	// position it merges in, and when every shard is empty the merged row
	// is the single-device row over no input.
	sch := testSchema()
	price, id, note := C(sch, "price"), C(sch, "id"), C(sch, "note")
	aggs := []Agg{
		{F: Min, Arg: price, Name: "min_price"},
		{F: Max, Arg: price, Name: "max_price"},
		{F: Min, Arg: id, Name: "min_id"},
		{F: Max, Arg: id, Name: "max_id"},
		{F: Min, Arg: note, Name: "min_note"},
		{F: Max, Arg: note, Name: "max_note"},
		{F: Sum, Arg: price, Name: "sum_price"},
		{F: Avg, Arg: price, Name: "avg_price"},
	}
	for _, empty := range [][]int{{1}, {0}, {0, 1}} {
		shardAggFixture(t, 2, nil, nil, aggs, empty...)
	}
}

func TestShardedAggAvgIntColumn(t *testing.T) {
	// Avg over a TInt column exercises the DecF final-division path.
	sch := testSchema()
	id := C(sch, "id")
	shardAggFixture(t, 2, nil, nil, []Agg{{F: Avg, Arg: id, Name: "avg_id"}})
}

func TestShardedAggEmptyShardAndMissingGroups(t *testing.T) {
	// A shard with no rows for a group (or no rows at all) must not
	// disturb the merge: partition so shard 1 is empty.
	sch := NewSchema(Column{"g", TString}, Column{"v", TDecimal})
	rows := []Row{
		{Str("a"), Dec(100)},
		{Str("a"), Dec(50)},
		{Str("b"), Dec(7)},
	}
	plan, err := NewShardedAggPlan([]Expr{C(sch, "g")}, []string{"g"},
		[]Agg{{F: Sum, Arg: C(sch, "v"), Name: "s"}, {F: Avg, Arg: C(sch, "v"), Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		ex := NewExec(h, d)
		p0, err := Collect(plan.ShardOp(ex, NewMemScan(sch, rows)))
		if err != nil {
			t.Fatal(err)
		}
		p1, err := Collect(plan.ShardOp(ex, NewMemScan(sch, nil)))
		if err != nil {
			t.Fatal(err)
		}
		merged := plan.Merge([][]Row{p0, p1})
		if len(merged) != 2 {
			t.Fatalf("got %d groups, want 2", len(merged))
		}
		if merged[0][0].S != "a" || merged[0][1].I != 150 || merged[0][2].I != 75 {
			t.Fatalf("group a = %v", merged[0])
		}
		if merged[1][0].S != "b" || merged[1][1].I != 7 {
			t.Fatalf("group b = %v", merged[1])
		}
	})
}

func TestShardedAggRejectsCountDistinct(t *testing.T) {
	sch := testSchema()
	if _, err := NewShardedAggPlan(nil, nil, []Agg{{F: CountDistinct, Arg: C(sch, "note")}}); err == nil {
		t.Fatal("CountDistinct must be rejected at plan time")
	}
}
