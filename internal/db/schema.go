package db

import "fmt"

// Column describes one attribute.
type Column struct {
	Name string
	T    Type
}

// Schema is an ordered set of columns.
type Schema struct {
	Cols   []Column
	byName map[string]int
	ops    []cellOp // the row decoder's full decode: each column's Type
}

// NewSchema builds a schema; column names must be unique.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Cols: cols, byName: make(map[string]int, len(cols)), ops: make([]cellOp, len(cols))}
	for i, c := range cols {
		s.ops[i] = cellOp(c.T)
		if _, dup := s.byName[c.Name]; dup {
			panic("db: duplicate column " + c.Name)
		}
		s.byName[c.Name] = i
	}
	return s
}

// decodeOps returns the row decoder's ops for a scan whose readers need
// the columns need marks: a decode for each of them, a skip for the rest.
// A nil need is every column, and gets the schema's own full decode.
func (s *Schema) decodeOps(need []bool) []cellOp {
	if need == nil {
		return s.ops
	}
	ops := make([]cellOp, len(s.ops))
	for i, op := range s.ops {
		if !need[i] {
			op |= skipCell
		}
		ops[i] = op
	}
	return ops
}

// Col returns the index of the named column, panicking if absent (schema
// errors are programming errors in hand-built plans).
func (s *Schema) Col(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("db: no column %q (have %v)", name, s.Names()))
	}
	return i
}

// HasCol reports whether the named column exists.
func (s *Schema) HasCol(name string) bool {
	_, ok := s.byName[name]
	return ok
}

// Names lists column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Concat returns a schema with other's columns appended (join output).
func (s *Schema) Concat(other *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(other.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, other.Cols...)
	// Joins can legally duplicate names; qualify collisions.
	seen := map[string]bool{}
	for i := range cols {
		name := cols[i].Name
		for seen[name] {
			name = name + "_r"
		}
		seen[name] = true
		cols[i].Name = name
	}
	return NewSchema(cols...)
}
