package biscuit

import (
	"fmt"
	"testing"

	"biscuit/internal/sim"
)

// runSessions launches each program as its own simulated host thread
// against the one SSD and drives the simulation until all have finished.
func runSessions(sys *System, programs []func(h *Host)) {
	for i, program := range programs {
		launch(sys.Env, fmt.Sprintf("session-%d", i), nil, func(p *sim.Proc) { program(&Host{sys: sys, p: p}) })
	}
	sys.Env.Run()
}

// TestConcurrentSessions runs several independent host programs against
// one SSD at the same time — the multi-user operation §VIII lists as an
// ongoing extension. Sessions share the runtime but must not interfere:
// each gets correct results, and module reference counting survives
// interleaved load/unload.
func TestConcurrentSessions(t *testing.T) {
	sys := NewSystem(quickConfig())
	const sessions = 4
	results := make([]int64, sessions)

	// Each session creates its own file, scans it for its own needle and
	// checks the count.
	programs := make([]func(h *Host), sessions)
	for i := 0; i < sessions; i++ {
		i := i
		programs[i] = func(h *Host) {
			ssd := h.SSD()
			name := fmt.Sprintf("sess-%d.log", i)
			needle := fmt.Sprintf("NEEDLE%dX", i)
			blob := make([]byte, 256<<10)
			for j := range blob {
				blob[j] = 'x'
			}
			plant := i + 3
			for j := 0; j < plant; j++ {
				copy(blob[j*9000+17:], needle)
			}
			f, err := ssd.CreateFile(name)
			if err != nil {
				t.Error(err)
				return
			}
			ssd.WriteFile(f, 0, blob)

			mod, err := ssd.LoadModule(BuiltinModule)
			if err != nil {
				t.Error(err)
				return
			}
			app := ssd.NewApplication()
			let, err := app.NewSSDLet(mod, ScannerID, ScanArgs{File: name, Keys: []string{needle}, Mode: ScanCount})
			if err != nil {
				t.Error(err)
				return
			}
			port, err := ConnectTo[ScanResult](app, let.Out(0))
			if err != nil {
				t.Error(err)
				return
			}
			app.Start()
			if res, ok := port.Get(); ok {
				results[i] = res.Matches
			}
			app.Wait()
			for _, ferr := range app.Failed() {
				t.Error(ferr)
			}
			if err := ssd.UnloadModule(mod); err != nil {
				t.Errorf("session %d unload: %v", i, err)
			}
		}
	}
	runSessions(sys, programs)
	for i := 0; i < sessions; i++ {
		if results[i] != int64(i+3) {
			t.Errorf("session %d found %d matches, want %d", i, results[i], i+3)
		}
	}
}

// TestConcurrentSessionsShareChannelPool checks that many simultaneous
// host ports respect the channel manager's bounded pool (§IV-B) without
// deadlock: more sessions than data channels still complete.
func TestConcurrentSessionsShareChannelPool(t *testing.T) {
	sys := NewSystem(quickConfig())
	const sessions = 8
	done := 0
	programs := make([]func(h *Host), sessions)
	for i := 0; i < sessions; i++ {
		i := i
		programs[i] = func(h *Host) {
			ssd := h.SSD()
			name := fmt.Sprintf("f%d", i)
			f, _ := ssd.CreateFile(name)
			ssd.WriteFile(f, 0, []byte("hello hello hello"))
			mod, err := ssd.LoadModule(BuiltinModule)
			if err != nil {
				t.Error(err)
				return
			}
			app := ssd.NewApplication()
			let, _ := app.NewSSDLet(mod, ScannerID, ScanArgs{File: name, Keys: []string{"hello"}, Mode: ScanCount})
			port, err := ConnectTo[ScanResult](app, let.Out(0))
			if err != nil {
				t.Error(err)
				return
			}
			app.Start()
			if res, ok := port.Get(); ok && res.Matches == 3 {
				done++
			}
			app.Wait()
			ssd.UnloadModule(mod)
		}
	}
	runSessions(sys, programs)
	if done != sessions {
		t.Fatalf("%d of %d sessions completed", done, sessions)
	}
	if inUse := sys.RT.ChannelManager().InUse(); inUse != 0 {
		t.Fatalf("%d data channels leaked", inUse)
	}
}
