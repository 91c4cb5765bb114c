package relation

import (
	"sort"

	"ivm/internal/value"
)

// This file holds the two building blocks of parallel evaluation:
//
//   - Shards: per-worker output buffers. Each worker owns one *Relation
//     and appends to it without any locking; a final ⊎-merge folds the
//     buffers together in a deterministic (sorted-by-key) order. Because
//     ⊎ adds counts and counts are commutative, the merged relation is
//     identical to what a sequential evaluation would have produced.
//
//   - PartitionView: a Reader exposing only the rows of an underlying
//     relation whose tuple hash falls in one of n partitions. Restricting
//     exactly one join-mode literal of a rule to a partition and summing
//     the per-partition results over all partitions yields exactly the
//     full rule output, since every derivation uses exactly one row of
//     that literal.

// Shards is a set of per-worker relations built lock-free (each worker
// writes only its own shard) and merged deterministically afterwards.
type Shards struct {
	parts []*Relation
}

// NewShards returns n empty shards (n is clamped to a minimum of 1) of
// dst's arity that borrow from dst's lenders: what is merged into dst is
// then built as if dst had been filled directly.
func NewShards(dst *Relation, n int) *Shards {
	if n < 1 {
		n = 1
	}
	s := &Shards{parts: make([]*Relation, n)}
	for i := range s.parts {
		s.parts[i] = New(dst.Arity())
		s.parts[i].lend = dst.lend
	}
	return s
}

// Shard returns worker i's private relation.
func (s *Shards) Shard(i int) *Relation { return s.parts[i] }

// MergeInto folds every shard into dst with the ⊎ operator, visiting
// rows in sorted key order so the merge (and any index maintenance it
// triggers) is deterministic regardless of how work was scheduled.
func (s *Shards) MergeInto(dst *Relation) {
	total := 0
	for _, p := range s.parts {
		total += p.Len()
	}
	if total == 0 {
		return
	}
	rows := make([]Row, 0, total)
	for _, p := range s.parts {
		rows = append(rows, p.Rows()...)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key() < rows[j].Key() })
	for _, row := range rows {
		dst.AddRow(row)
	}
}

// keyHash is FNV-1a over a tuple's canonical key — deterministic across
// runs and Go versions, which keeps partition assignment reproducible.
func keyHash[K string | []byte](k K) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime
	}
	return h
}

// partitionView filters a Reader down to one hash partition.
type partitionView struct {
	r           Reader
	part, parts uint64
}

// PartitionView returns a Reader exposing exactly the rows of r whose
// tuple hash ≡ part (mod parts). The parts views for part = 0..parts-1
// form a disjoint cover of r. parts <= 1 returns r unchanged.
func PartitionView(r Reader, part, parts int) Reader {
	if parts <= 1 {
		return r
	}
	return &partitionView{r: r, part: uint64(part), parts: uint64(parts)}
}

func (p *partitionView) owns(key string) bool { return keyHash(key)%p.parts == p.part }

// ownsTuple is owns for a tuple not yet keyed: it hashes the encoding in
// a stack buffer.
func (p *partitionView) ownsTuple(t value.Tuple) bool {
	var buf [value.KeyScratch]byte
	return keyHash(t.AppendKey(buf[:0]))%p.parts == p.part
}

func (p *partitionView) Arity() int { return p.r.Arity() }

// Len estimates the partition's share of the underlying relation (join
// ordering only needs a rough size).
func (p *partitionView) Len() int { return p.r.Len()/int(p.parts) + 1 }

func (p *partitionView) Count(t value.Tuple) int64 {
	if !p.ownsTuple(t) {
		return 0
	}
	return p.r.Count(t)
}

func (p *partitionView) Has(t value.Tuple) bool {
	if !p.ownsTuple(t) {
		return false
	}
	return p.r.Has(t)
}

func (p *partitionView) Each(f func(Row)) {
	p.r.Each(func(row Row) {
		if p.owns(row.Key()) {
			f(row)
		}
	})
}

func (p *partitionView) Lookup(cols []int, keyVals value.Tuple) []Row {
	rows := p.r.Lookup(cols, keyVals)
	out := make([]Row, 0, len(rows)/int(p.parts)+1)
	for _, row := range rows {
		if p.owns(row.Key()) {
			out = append(out, row)
		}
	}
	return out
}

var _ Reader = (*partitionView)(nil)
