package bench

import "testing"

// TestAblationsShape asserts the directions the ablations exist to
// show, not their digits (those are baselines/BENCH_ablations.json's):
//
//   - the NDP-first join reorder alone speeds Q14 up;
//   - the matcher IP wins the scan by severalfold while a software-only
//     device scan roughly breaks even with Conv (§I);
//   - each step of pushdown moves fewer pages over the link, for the
//     same answer (RunAblations panics on a different one);
//   - internal bandwidth grows with every added channel;
//   - NDP's gain is larger behind a network than direct-attached;
//   - the asynchronous file API beats the synchronous one (§III-D);
//   - a looser planner threshold never offloads fewer queries.
func TestAblationsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("five TPC-H loads and a 66-query sweep")
	}
	got := RunAblations(QuickConfig())

	if jo := got.JoinOrder; jo.MariaDBOrder <= jo.NDPFirst {
		t.Errorf("join reorder gains nothing: %v with vs %v without", jo.NDPFirst, jo.MariaDBOrder)
	}
	ds := got.DeviceScan
	if hw := float64(ds.Conv) / float64(ds.HWMatcher); hw <= 5 {
		t.Errorf("matcher-IP scan only %.2fx over Conv, want >5", hw)
	}
	if sw := float64(ds.Conv) / float64(ds.SWDevice); sw < 0.8 || sw > 1.5 {
		t.Errorf("software device scan %.2fx over Conv, want the 0.8-1.5 break-even band", sw)
	}
	ap := got.AggPushdown
	if !(ap.Conv.LinkPages > ap.Filter.LinkPages && ap.Filter.LinkPages > ap.FilterAgg.LinkPages) {
		t.Errorf("link pages must fall with each pushdown step: %d / %d / %d",
			ap.Conv.LinkPages, ap.Filter.LinkPages, ap.FilterAgg.LinkPages)
	}
	for i := 1; i < len(got.Channels); i++ {
		if prev, pt := got.Channels[i-1], got.Channels[i]; pt.GBps <= prev.GBps {
			t.Errorf("bandwidth not increasing: %d channels %.2f GB/s, %d channels %.2f GB/s",
				prev.Channels, prev.GBps, pt.Channels, pt.GBps)
		}
	}
	direct, remote := got.Networked.Direct, got.Networked.Remote
	dg, rg := float64(direct.Conv)/float64(direct.NDP), float64(remote.Conv)/float64(remote.NDP)
	if rg <= dg {
		t.Errorf("networked gain %.2fx must exceed direct-attached %.2fx", rg, dg)
	}
	if af := got.AsyncFile; af.Async >= af.Sync {
		t.Errorf("async reads %v not faster than sync %v", af.Async, af.Sync)
	}
	for i := 1; i < len(got.Threshold); i++ {
		if prev, pt := got.Threshold[i-1], got.Threshold[i]; pt.Offloaded < prev.Offloaded {
			t.Errorf("threshold %g offloads %d queries, fewer than %d at %g",
				pt.Threshold, pt.Offloaded, prev.Offloaded, prev.Threshold)
		}
	}
	if len(got.Channels) != 4 || len(got.Threshold) != 3 {
		t.Errorf("sweeps have %d channel and %d threshold points, want 4 and 3", len(got.Channels), len(got.Threshold))
	}
	t.Logf("%+v", got)
}
