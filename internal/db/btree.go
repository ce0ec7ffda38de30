package db

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// A disk-backed B+tree secondary index over one integer column, stored
// as fixed-size node pages in its own file on the in-storage file
// system. MariaDB's real joins are index lookups; the INLJoin operator
// built on this index is the higher-fidelity alternative to BNLJoin and
// feeds the BNL-vs-INL ablation.
//
// Node page layout (PageSize bytes):
//
//	[0]     node type: 0 leaf, 1 internal
//	[1:3]   uint16 entry count
//	leaf:     count × (key int64, heapPage uint32, slot uint16)
//	internal: count × key int64, then count+1 × child uint32
//
// Page 0 of the index file is the meta page: root page id, height and
// entry count. The tree is bulk-loaded bottom-up from sorted entries.

const (
	nodeHeader   = 3
	leafEntrySz  = 8 + 4 + 2
	internKeySz  = 8
	internRefSz  = 4
	indexMetaSz  = 16
	leafNodeType = 0
	interNode    = 1
)

// IndexEntry locates one row: its heap page number and row slot within
// that page.
type IndexEntry struct {
	Key  int64
	Page uint32
	Slot uint16
}

// Index is an opened B+tree.
type Index struct {
	T        *Table
	ColIdx   int
	FileName string

	pageSize int
	root     uint32
	height   int // 1 = root is a leaf
	entries  int64
	// Leaves occupy contiguous page ids [firstLeaf, lastLeaf] in key
	// order, so duplicate runs that cross a leaf boundary are found by
	// scanning adjacent leaf pages.
	firstLeaf, lastLeaf uint32
}

// BuildIndex scans t once and bulk-loads a B+tree over column col,
// persisting it as a file next to the table. The scan is performed over
// the conventional path (index builds run on the host, like CREATE
// INDEX), and the node writes go to the media.
func (d *Database) BuildIndex(ex *Exec, t *Table, col string) (*Index, error) {
	colIdx := t.Sch.Col(col)
	if t.Sch.Cols[colIdx].T != TInt {
		return nil, fmt.Errorf("db: index column %s must be integer, is %v", col, t.Sch.Cols[colIdx].T)
	}
	// Collect (key, page, slot) for every row by walking the raw heap
	// pages (a ConvScan does not expose row locations).
	var entries []IndexEntry
	f, err := ex.H.SSD().OpenFile(t.FileName, true)
	if err != nil {
		return nil, err
	}
	ps := t.PageSize
	buf := make([]byte, ps)
	for pg := int64(0); pg < t.Pages; pg++ {
		if err := ex.H.SSD().ReadFileConv(f, pg*int64(ps), buf); err != nil {
			return nil, err
		}
		ex.AddLinkPages(1)
		slot := 0
		err := DecodePage(buf, t.Sch, func(r Row) error {
			entries = append(entries, IndexEntry{Key: r[colIdx].I, Page: uint32(pg), Slot: uint16(slot)})
			slot++
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	ex.chargeHost(float64(len(entries)) * 80) // key extraction + sort work
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })

	// Bulk-load leaves then internal levels.
	idxName := t.FileName + "." + col + ".idx"
	// Replace an existing index file.
	for _, existing := range listLike(d, idxName) {
		if err := d.Sys.RT.FS.Remove(existing); err != nil {
			return nil, fmt.Errorf("db: replacing index %s: %w", existing, err)
		}
	}
	idxFile, err := ex.H.SSD().CreateFile(idxName)
	if err != nil {
		return nil, err
	}
	var pages [][]byte // page id -> contents (page 0 reserved for meta)
	pages = append(pages, make([]byte, ps))

	leafCap := (ps - nodeHeader) / leafEntrySz
	type levelRef struct {
		firstKey int64
		page     uint32
	}
	var level []levelRef
	for at := 0; at < len(entries); {
		n := leafCap
		if rem := len(entries) - at; n > rem {
			n = rem
		}
		node := make([]byte, ps)
		node[0] = leafNodeType
		binary.LittleEndian.PutUint16(node[1:3], uint16(n))
		off := nodeHeader
		for i := 0; i < n; i++ {
			e := entries[at+i]
			binary.LittleEndian.PutUint64(node[off:], uint64(e.Key))
			binary.LittleEndian.PutUint32(node[off+8:], e.Page)
			binary.LittleEndian.PutUint16(node[off+12:], e.Slot)
			off += leafEntrySz
		}
		level = append(level, levelRef{firstKey: entries[at].Key, page: uint32(len(pages))})
		pages = append(pages, node)
		at += n
	}
	height := 1
	if len(level) == 0 { // empty table: single empty leaf
		node := make([]byte, ps)
		node[0] = leafNodeType
		level = append(level, levelRef{page: uint32(len(pages))})
		pages = append(pages, node)
	}
	firstLeaf, lastLeaf := level[0].page, level[len(level)-1].page
	internCap := (ps - nodeHeader - internRefSz) / (internKeySz + internRefSz)
	for len(level) > 1 {
		var next []levelRef
		for at := 0; at < len(level); {
			n := internCap
			if rem := len(level) - at; n+1 > rem {
				n = rem - 1
			}
			if n < 1 && len(level)-at > 1 {
				n = 1
			}
			kids := level[at : at+n+1]
			node := make([]byte, ps)
			node[0] = interNode
			binary.LittleEndian.PutUint16(node[1:3], uint16(n))
			off := nodeHeader
			// Separator keys are the first keys of children 1..n.
			for i := 1; i <= n; i++ {
				binary.LittleEndian.PutUint64(node[off:], uint64(kids[i].firstKey))
				off += internKeySz
			}
			for i := 0; i <= n; i++ {
				binary.LittleEndian.PutUint32(node[off:], kids[i].page)
				off += internRefSz
			}
			next = append(next, levelRef{firstKey: kids[0].firstKey, page: uint32(len(pages))})
			pages = append(pages, node)
			at += n + 1
		}
		level = next
		height++
	}
	root := level[0].page

	// Meta page.
	meta := pages[0]
	binary.LittleEndian.PutUint32(meta[0:4], root)
	binary.LittleEndian.PutUint32(meta[4:8], uint32(height))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(len(entries)))

	// Write the whole index file.
	blob := make([]byte, 0, len(pages)*ps)
	for _, p := range pages {
		blob = append(blob, p...)
	}
	if err := idxFile.Write(ex.H.Proc(), 0, blob); err != nil {
		return nil, err
	}
	if err := idxFile.Flush(ex.H.Proc()); err != nil {
		return nil, err
	}

	return &Index{T: t, ColIdx: colIdx, FileName: idxName, pageSize: ps,
		root: root, height: height, entries: int64(len(entries)),
		firstLeaf: firstLeaf, lastLeaf: lastLeaf}, nil
}

func listLike(d *Database, name string) []string {
	var out []string
	for _, n := range d.Sys.RT.FS.List() {
		if n == name {
			out = append(out, n)
		}
	}
	return out
}

// Entries returns the number of indexed rows.
func (ix *Index) Entries() int64 { return ix.entries }

// Height returns the tree height (1 = root is a leaf).
func (ix *Index) Height() int { return ix.height }

// readNode fetches one index node over the conventional path. Upper
// levels of a hot index live in the buffer pool, so only leaf reads are
// charged as I/O; internal-node traversal costs CPU only.
func (ix *Index) readNode(ex *Exec, page uint32, charged bool) ([]byte, error) {
	f, err := ex.H.SSD().OpenFile(ix.FileName, true)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, ix.pageSize)
	if charged {
		if err := ex.H.SSD().ReadFileConv(f, int64(page)*int64(ix.pageSize), buf); err != nil {
			return nil, err
		}
		ex.AddLinkPages(1)
	} else {
		// Buffer-pool hit: the bytes come from host memory; pay CPU only.
		ex.chargeHost(200)
		if err := f.Peek(int64(page)*int64(ix.pageSize), buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Lookup returns the heap locations of all rows with the given key,
// charging the traversal (cached internal nodes, one leaf read, plus
// leaf-chain reads for large duplicate runs).
func (ix *Index) Lookup(ex *Exec, key int64) ([]IndexEntry, error) {
	page := ix.root
	for lvl := 0; lvl < ix.height-1; lvl++ {
		node, err := ix.readNode(ex, page, false)
		if err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint16(node[1:3]))
		// Find first separator > key.
		idx := sort.Search(n, func(i int) bool {
			k := int64(binary.LittleEndian.Uint64(node[nodeHeader+i*internKeySz:]))
			return k > key
		})
		refBase := nodeHeader + n*internKeySz
		page = binary.LittleEndian.Uint32(node[refBase+idx*internRefSz:])
	}
	// Collect matches from the target leaf, then scan adjacent leaves
	// while duplicate runs continue across page boundaries (leaves are
	// laid out contiguously in key order).
	var out []IndexEntry
	scanLeaf := func(pg uint32) (first, last int64, hit bool, err error) {
		node, err := ix.readNode(ex, pg, true)
		if err != nil {
			return 0, 0, false, err
		}
		n := int(binary.LittleEndian.Uint16(node[1:3]))
		if n == 0 {
			return 0, 0, false, nil
		}
		first = int64(binary.LittleEndian.Uint64(node[nodeHeader:]))
		last = int64(binary.LittleEndian.Uint64(node[nodeHeader+(n-1)*leafEntrySz:]))
		for i := 0; i < n; i++ {
			off := nodeHeader + i*leafEntrySz
			if int64(binary.LittleEndian.Uint64(node[off:])) == key {
				hit = true
				out = append(out, IndexEntry{
					Key:  key,
					Page: binary.LittleEndian.Uint32(node[off+8:]),
					Slot: binary.LittleEndian.Uint16(node[off+12:]),
				})
			}
		}
		return first, last, hit, nil
	}
	first, last, _, err := scanLeaf(page)
	if err != nil {
		return nil, err
	}
	for pg := page; pg > ix.firstLeaf && first == key; pg-- {
		f2, _, hit, err := scanLeaf(pg - 1)
		if err != nil {
			return nil, err
		}
		if !hit {
			break
		}
		first = f2
	}
	for pg := page; pg < ix.lastLeaf && last == key; pg++ {
		_, l2, hit, err := scanLeaf(pg + 1)
		if err != nil {
			return nil, err
		}
		if !hit {
			break
		}
		last = l2
	}
	// Heap order (page, slot) keeps FetchRows page reads sequential and
	// the result deterministic regardless of which leaf matched first.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Page != out[j].Page {
			return out[i].Page < out[j].Page
		}
		return out[i].Slot < out[j].Slot
	})
	return out, nil
}

// FetchRows reads the heap rows behind entries (one timed heap-page read
// per distinct page).
func (ix *Index) FetchRows(ex *Exec, entries []IndexEntry) ([]Row, error) {
	f, err := ex.H.SSD().OpenFile(ix.T.FileName, true)
	if err != nil {
		return nil, err
	}
	ps := ix.T.PageSize
	buf := make([]byte, ps)
	var out []Row
	var lastPage int64 = -1
	var pageRows []Row
	for _, e := range entries {
		if int64(e.Page) != lastPage {
			if err := ex.H.SSD().ReadFileConv(f, int64(e.Page)*int64(ps), buf); err != nil {
				return nil, err
			}
			ex.AddLinkPages(1)
			ex.chargeHost(hostDecodeCPB * float64(ps))
			pageRows = pageRows[:0]
			if err := DecodePage(buf, ix.T.Sch, func(r Row) error {
				pageRows = append(pageRows, r)
				return nil
			}); err != nil {
				return nil, err
			}
			lastPage = int64(e.Page)
		}
		if int(e.Slot) >= len(pageRows) {
			return nil, fmt.Errorf("db: index slot %d out of range on page %d", e.Slot, e.Page)
		}
		out = append(out, pageRows[e.Slot])
	}
	return out, nil
}

// INLJoin is an index-nested-loop join: for every outer row it probes
// the inner table's B+tree and fetches matching heap rows — MariaDB's
// actual join strategy when an index exists.
type INLJoin struct {
	Ex       *Exec
	Outer    Iterator
	Ix       *Index
	OuterKey Expr
	// Residual, if non-nil, filters the combined row (outer ++ inner).
	Residual Expr

	sch *Schema
	cur outerCursor
	joinOut
}

func (j *INLJoin) exec() *Exec { return j.Ex }

// Schema returns outer ++ inner columns.
func (j *INLJoin) Schema() *Schema {
	if j.sch == nil {
		j.sch = j.Outer.Schema().Concat(j.Ix.T.Sch)
	}
	return j.sch
}

// Open opens the outer input.
func (j *INLJoin) Open() error {
	j.Schema()
	j.cur = outerCursor{}
	j.joinOut = joinOut{}
	return j.Outer.Open()
}

// NextBatch probes the index with outer rows until joined rows are
// available, then emits them in probe order.
func (j *INLJoin) NextBatch(b *RowBatch) (int, error) {
	for {
		if n := j.emit(b); n > 0 {
			return n, nil
		}
		or, ok, err := j.cur.next(j.Outer, j.Ex)
		if err != nil || !ok {
			return 0, err
		}
		// The index holds integer keys (BuildIndex takes TInt columns
		// only), and keys of two types do not compare.
		key := j.OuterKey.Eval(or)
		if key.T != TInt {
			panic(typeMismatch(key.T, TInt))
		}
		entries, err := j.Ix.Lookup(j.Ex, key.I)
		if err != nil {
			return 0, err
		}
		if len(entries) == 0 {
			continue
		}
		inner, err := j.Ix.FetchRows(j.Ex, entries)
		if err != nil {
			return 0, err
		}
		j.Ex.chargeHost(hostJoinCPR * float64(len(inner)))
		for _, ir := range inner {
			j.match(or, ir, j.Residual, true)
		}
	}
}

// Close closes the outer input.
func (j *INLJoin) Close() error { return j.Outer.Close() }
