package db

import (
	"strings"
	"testing"

	"biscuit"
)

// Failure injection: the engine must turn corrupted media content into
// errors, never panics, on both the Conv and the device-side paths.

func TestConvScanSurvivesCorruptPage(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 2000, 50)
		// Overwrite the second page of the table file with garbage that
		// claims an impossible row count.
		f, err := h.SSD().OpenFile(tab.FileName, false)
		if err != nil {
			t.Fatal(err)
		}
		garbage := CorruptPage(tab.PageSize, 0xFFFF, "", 31)
		if err := f.Write(h.Proc(), int64(tab.PageSize), garbage); err != nil {
			t.Fatal(err)
		}
		if err := f.Flush(h.Proc()); err != nil {
			t.Fatal(err)
		}

		ex := NewExec(h, d)
		_, err = Collect(ex.NewConvScan(tab, nil))
		if err == nil {
			t.Fatal("corrupted page must surface as an error")
		}
		if !strings.Contains(err.Error(), "conv scan") {
			t.Fatalf("unhelpful error: %v", err)
		}
	})
}

func TestNDPScanSurfacesCorruptPageAsContainedFailure(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 2000, 50)
		f, _ := h.SSD().OpenFile(tab.FileName, false)
		// Forge a 32767-row header and plant the needle so the matcher
		// fires on the corrupt page and the device CPU actually decodes it.
		garbage := CorruptPage(tab.PageSize, 0x7FFF, "TARGETKEY", 7)
		if err := f.Write(h.Proc(), 0, garbage); err != nil {
			t.Fatal(err)
		}
		if err := f.Flush(h.Proc()); err != nil {
			t.Fatal(err)
		}

		ex := NewExec(h, d)
		_, err := Collect(ex.NewNDPScan(tab, []string{"TARGETKEY"}, EqS(tab.Sch, "note", "TARGETKEY")))
		if err == nil {
			t.Fatal("device-side decode of a corrupt page must fail the scan")
		}
		if !strings.Contains(err.Error(), "device scan failed") {
			t.Fatalf("error should identify the device scan: %v", err)
		}
		// The runtime survives: a fresh scan of an intact table works.
		ld, err := d.NewLoader(h, "clean", tab.Sch, 8)
		if err != nil {
			t.Fatal(err)
		}
		ld.Add(Row{Int(1), Dec(1), MustDate("1995-01-17"), Str("TARGETKEY")})
		ld.Close()
		rows, err := Collect(ex.NewNDPScan(d.Table("clean"), []string{"TARGETKEY"}, nil))
		if err != nil || len(rows) != 1 {
			t.Fatalf("runtime unusable after contained failure: rows=%d err=%v", len(rows), err)
		}
	})
}

func TestLoaderOutOfSpace(t *testing.T) {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.Channels = 2
	cfg.NAND.WaysPerChannel = 1
	cfg.NAND.BlocksPerDie = 8
	cfg.NAND.PagesPerBlock = 8
	sys := biscuit.NewSystem(cfg)
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		sch := NewSchema(Column{"v", TString})
		ld, err := d.NewLoader(h, "big", sch, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Error("filling the device must surface an error")
			}
		}()
		big := strings.Repeat("x", 1000)
		for i := 0; i < 100000; i++ {
			if err := ld.Add(Row{Str(big)}); err != nil {
				return // reported as error: also acceptable
			}
		}
	})
}

func TestIndexLookupOnEmptyTable(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		sch := NewSchema(Column{"k", TInt})
		ld, _ := d.NewLoader(h, "empty", sch, 4)
		ld.Close()
		ex := NewExec(h, d)
		ix, err := d.BuildIndex(ex, d.Table("empty"), "k")
		if err != nil {
			t.Fatal(err)
		}
		es, err := ix.Lookup(ex, 42)
		if err != nil || len(es) != 0 {
			t.Fatalf("empty-table lookup: %v entries, err=%v", len(es), err)
		}
	})
}
