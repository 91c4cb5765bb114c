package relation

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"ivm/internal/value"
)

// Cardinality statistics: per-column distinct-value estimates maintained
// incrementally, feeding the cost-based join planner in internal/eval.
//
// Each column gets a small linear-counting sketch (a fixed array of
// bucket refcounts keyed by a hash of the column value). The estimate is
// the classic m·ln(m/empty) formula; refcounts (rather than bits) make
// the sketch decrementable, so deletions are handled exactly like
// insertions. Sketches follow the lazy-index discipline: nothing is
// allocated until the first DistinctEst call, after which Add/Delete keep
// the sketch in sync via the same transition points that maintain
// indexes. Relations built by direct table writes (Clone, Negate, ToSet,
// SetDiff, ...) start with no stats, so they can never go stale.

// statsBuckets is the number of refcount buckets per column sketch.
// Linear counting with 256 buckets estimates well up to a few thousand
// distinct values and saturates (toward Len) beyond — plenty for join
// ordering, which only needs the right order of magnitude.
const statsBuckets = 256

type colSketch struct {
	buckets [statsBuckets]int32
	nonzero int
}

func (c *colSketch) add(v value.Value, delta int) {
	b := &c.buckets[hashValue(v)%statsBuckets]
	was := *b
	*b += int32(delta)
	switch {
	case was == 0 && *b != 0:
		c.nonzero++
	case was != 0 && *b == 0:
		c.nonzero--
	}
}

// estimate returns the linear-counting distinct estimate, clamped to
// [1, n] (0 when the relation is empty). n is the relation's Len.
func (c *colSketch) estimate(n int) int {
	if n == 0 {
		return 0
	}
	empty := statsBuckets - c.nonzero
	if empty <= 0 {
		return n // sketch saturated: at least ~statsBuckets·ln(statsBuckets) distinct
	}
	est := int(math.Round(statsBuckets * math.Log(statsBuckets/float64(empty))))
	if est < 1 {
		est = 1
	}
	if est > n {
		est = n
	}
	return est
}

// tableStats holds one sketch per column. mu serializes sketch updates
// against concurrent estimate reads so the race detector stays clean if
// a planner consults a relation another goroutine is lazily building
// stats for.
type tableStats struct {
	mu   sync.Mutex
	cols []colSketch
}

func (st *tableStats) add(t value.Tuple, delta int) {
	st.mu.Lock()
	for i := range st.cols {
		if i < len(t) {
			st.cols[i].add(t[i], delta)
		}
	}
	st.mu.Unlock()
}

func (st *tableStats) estimate(col, n int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if col < 0 || col >= len(st.cols) {
		return n
	}
	return st.cols[col].estimate(n)
}

// CardEstimator is the optional Reader extension the planner consults for
// per-column distinct estimates. Readers that do not implement it are
// costed with DistinctEstimate's fallback.
type CardEstimator interface {
	// DistinctEst estimates the number of distinct values in column col.
	// The result is always within [0, Len()].
	DistinctEst(col int) int
}

// DistinctEstimate returns an estimate of the number of distinct values
// in column col of rd, falling back to rd.Len() (every tuple distinct in
// that column — the optimistic upper bound) when rd keeps no statistics.
func DistinctEstimate(rd Reader, col int) int {
	if ce, ok := rd.(CardEstimator); ok {
		return ce.DistinctEst(col)
	}
	return rd.Len()
}

// DistinctEst estimates the number of distinct values in column col,
// building the relation's sketches on first use (O(Len), internally
// synchronized — legal on frozen relations, like lazy index builds) and
// maintaining them incrementally afterwards.
func (r *Relation) DistinctEst(col int) int {
	// Unknown arity (-1) means empty: sketches made now would never get columns.
	if col < 0 || col >= r.Arity() {
		return r.Len()
	}
	r.idxMu.RLock()
	st := r.stats
	r.idxMu.RUnlock()
	if st == nil {
		r.idxMu.Lock()
		if st = r.stats; st == nil {
			st = &tableStats{cols: make([]colSketch, r.arity)}
			r.Each(func(row Row) { st.add(row.Tuple, 1) })
			r.stats = st
		}
		r.idxMu.Unlock()
	}
	return st.estimate(col, r.Len())
}

// statsAdd records a presence transition of t (delta +1 on insert, −1 on
// removal) in the column sketches. Count-only changes do not call it:
// distinct counts track tuple presence, not multiplicity. Like idxAdd it
// reads the lazy field unlocked: mutations never overlap reads.
func (r *Relation) statsAdd(t value.Tuple, delta int) {
	if r.stats != nil {
		r.stats.add(t, delta)
	}
}

// hashValue is FNV-1a over the value's kind and payload, avoiding the
// allocation of the canonical key encoding on the mutation hot path.
func hashValue(v value.Value) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime32
	}
	mix(byte(v.Kind()))
	switch v.Kind() {
	case value.Int:
		u := uint64(v.Int())
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	case value.Float:
		u := math.Float64bits(v.Float())
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	case value.String:
		s := v.Str()
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
	}
	return h
}

// IndexPreferrer is the optional Reader extension the planner consults to
// reuse an existing hash index instead of lazily building a new one for
// every distinct bound-column set.
type IndexPreferrer interface {
	// PreferredIndex returns the column set of an existing index whose
	// columns are a subset of bound (which must be sorted ascending), or
	// nil when none applies. The result is deterministic: exact matches
	// win, then the widest subset, ties broken by column order.
	PreferredIndex(bound []int) []int
}

// PreferredIndexFor consults rd's existing indexes for one usable with
// the given bound columns; nil when rd has none (or no subset applies).
func PreferredIndexFor(rd Reader, bound []int) []int {
	if ip, ok := rd.(IndexPreferrer); ok {
		return ip.PreferredIndex(bound)
	}
	return nil
}

// PreferredIndex implements IndexPreferrer over the relation's live index
// set. See the interface for the selection rule.
func (r *Relation) PreferredIndex(bound []int) []int {
	if len(bound) == 0 {
		return nil
	}
	r.idxMu.RLock()
	defer r.idxMu.RUnlock()
	return preferred(len(r.idx), func(i int) []int { return r.idx[i].cols }, bound)
}

// preferred is PreferredIndex over n indexes, index i on the columns
// colsOf(i).
func preferred(n int, colsOf func(int) []int, bound []int) []int {
	if len(bound) == 0 {
		return nil
	}
	var best []int
	for i := range n {
		cols := colsOf(i)
		if slices.Equal(cols, bound) {
			return slices.Clone(cols)
		}
		usable := len(cols) > 0
		for _, c := range cols {
			if _, in := slices.BinarySearch(bound, c); !in {
				usable = false
				break
			}
		}
		if usable && (best == nil || len(cols) > len(best) || (len(cols) == len(best) && slices.Compare(cols, best) < 0)) {
			best = cols
		}
	}
	if best == nil {
		return nil
	}
	out := slices.Clone(best)
	slices.Sort(out)
	return out
}

// indexesBuilt counts hash-index builds process-wide; IndexesBuilt feeds
// the relation_indexes_built gauge so index proliferation is visible.
var indexesBuilt atomic.Int64

// IndexesBuilt returns the cumulative number of lazy hash-index builds
// across all relations in the process.
func IndexesBuilt() int64 { return indexesBuilt.Load() }

// rowsLinked counts the delta rows Push has put on version chains,
// rowsCopied the rows compaction, rebasing and flattening have written
// into a new table; copied ÷ linked is the publish amplification.
var rowsLinked, rowsCopied atomic.Int64

// rowProbes counts the Δ rows a Stored has been probed for by the key
// their cells carry, each row of Counts, MergeDelta and Lend, and the
// tuples Place located.
var rowProbes atomic.Int64

// RowProbes returns how many Δ rows and tuples the process's Stored
// relations have been probed for by key (rowProbes).
func RowProbes() int64 { return rowProbes.Load() }

// VersionRows returns the cumulative rows linked by Push and rows copied
// by compaction, rebasing or flattening, across all versions in the process.
func VersionRows() (linked, copied int64) { return rowsLinked.Load(), rowsCopied.Load() }
