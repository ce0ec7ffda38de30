package mem

// newEagerArena is NewArena with the whole capacity materialized at
// birth, as every arena was before the top chunk: the reference that
// the lazy arena must not be told apart from.
func newEagerArena(name, owner string, size int) (*Arena, error) {
	a, err := NewArena(name, owner, size)
	if err == nil {
		a.grow(a.size)
	}
	return a, err
}
