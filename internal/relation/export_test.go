package relation

// Materialize copies any Reader into a fresh *Relation. Rows keep the
// keys they were stored under; none is encoded again.
func Materialize(r Reader) *Relation {
	out := New(r.Arity())
	r.Each(out.AddRow)
	return out
}
