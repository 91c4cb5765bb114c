package relation

// RowProbes returns how many Δ rows a Stored has been probed for by key,
// across the process (rowProbes).
func RowProbes() int64 { return rowProbes.Load() }

// Materialize copies any Reader into a fresh *Relation. Rows keep the
// keys they were stored under; none is encoded again.
func Materialize(r Reader) *Relation {
	out := New(r.Arity())
	r.Each(out.AddRow)
	return out
}
