package db

import (
	"fmt"

	"biscuit"
)

// Database is a catalog of tables stored on one Biscuit system's
// in-storage file system.
type Database struct {
	Sys    *biscuit.System
	tables map[string]*Table

	ndpModule *biscuit.Module // lazily loaded device-scan module
	scratch   scratch         // host memory one query leaves for the next
}

// Table describes one stored relation.
type Table struct {
	Name     string
	Sch      *Schema
	FileName string
	Rows     int64
	Pages    int64
	PageSize int
}

// Open creates an empty catalog on sys and installs the device-side
// table-scan module (the XtraDB datapath rewrite of §V-C).
func Open(sys *biscuit.System) *Database {
	d := &Database{Sys: sys, tables: make(map[string]*Table)}
	sys.Install(ndpScanImage())
	return d
}

// Table returns the named table, panicking if absent.
func (d *Database) Table(name string) *Table {
	t, ok := d.tables[name]
	if !ok {
		panic(fmt.Sprintf("db: no table %q", name))
	}
	return t
}

// Tables lists catalog entries.
func (d *Database) Tables() map[string]*Table { return d.tables }

// Bytes returns the table's on-media size.
func (t *Table) Bytes() int64 { return t.Pages * int64(t.PageSize) }

// Loader bulk-loads rows into a new table.
type Loader struct {
	d      *Database
	t      *Table
	h      *biscuit.Host
	pb     *PageBuilder
	file   *biscuit.File
	off    int64
	batch  []byte
	target int
}

// NewLoader creates table name with schema sch and returns a loader.
// The batch parameter controls how many pages are written per media
// operation (larger batches load faster in both virtual and wall time).
func (d *Database) NewLoader(h *biscuit.Host, name string, sch *Schema, batchPages int) (*Loader, error) {
	if _, dup := d.tables[name]; dup {
		return nil, fmt.Errorf("db: table %q exists", name)
	}
	ps := d.Sys.Plat.FTL.PageSize()
	fileName := "tables/" + name + ".tbl"
	f, err := h.SSD().CreateFile(fileName)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Sch: sch, FileName: fileName, PageSize: ps}
	d.tables[name] = t
	if batchPages < 1 {
		batchPages = 64
	}
	return &Loader{d: d, t: t, h: h, pb: NewPageBuilder(ps, sch), file: f, target: batchPages * ps}, nil
}

// Add appends one row. A row too large for a page, or with a date no
// cell can store, is an error, and the table's rows stay as they were.
func (l *Loader) Add(r Row) error {
	for !l.pb.Add(r) {
		if err := storable(l.t.Sch, r); err != nil {
			return err
		}
		if l.pb.Rows() == 0 {
			return fmt.Errorf("db: row does not fit a fresh page")
		}
		l.flushPage()
	}
	l.t.Rows++
	return nil
}

// flushPage moves the open page into the write batch: Take lends the
// builder's buffer, so the page is copied before the next Add reuses it.
func (l *Loader) flushPage() {
	page := l.pb.Take()
	if page == nil {
		return
	}
	l.batch = append(l.batch, page...)
	l.t.Pages++
	if len(l.batch) >= l.target {
		l.writeBatch()
	}
}

func (l *Loader) writeBatch() {
	if len(l.batch) == 0 {
		return
	}
	if err := l.file.Write(l.h.Proc(), l.off, l.batch); err != nil {
		panic("db: load write: " + err.Error())
	}
	l.off += int64(len(l.batch))
	l.batch = l.batch[:0]
	if err := l.file.Flush(l.h.Proc()); err != nil {
		panic("db: load flush: " + err.Error())
	}
}

// Close flushes all buffered pages and finalizes the table.
func (l *Loader) Close() error {
	l.flushPage()
	l.writeBatch()
	return l.file.Flush(l.h.Proc())
}
