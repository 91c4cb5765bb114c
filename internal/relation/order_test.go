package relation

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ivm/internal/value"
)

// orderChild names the environment variable under which
// TestRowOrderIsAFunctionOfHistory runs as the child process it re-executes.
const orderChild = "RELATION_ORDER_CHILD"

// Rows iterate in an order the operations applied fix: the same history
// gives the same Each order and the same Lookup run order — in two tables
// of one process, with indexes built before the history and maintained
// through it or built after it, and in a child process, whose hash seed,
// and so every home, differs. A count that depends on which row comes
// first, as a rederivation that stops at a head's first derivation does,
// then repeats exactly.
func TestRowOrderIsAFunctionOfHistory(t *testing.T) {
	got := history(true)
	if late := history(false); late != got {
		t.Fatalf("indexes built after the history read\n%s\nbuilt before it\n%s", late, got)
	}
	if again := history(true); again != got {
		t.Fatalf("a second table with the same history reads\n%s\nthe first\n%s", again, got)
	}
	probe := fmt.Sprintf("hash %08x\n", hashString("probe"))
	if os.Getenv(orderChild) != "" {
		fmt.Print("<<<\n" + probe + got + ">>>\n")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRowOrderIsAFunctionOfHistory$", "-test.count=1")
	cmd.Env = append(os.Environ(), orderChild+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	_, rest, _ := strings.Cut(string(out), "<<<\n")
	child, _, ok := strings.Cut(rest, ">>>\n")
	if !ok {
		t.Fatalf("child process printed no history:\n%s", out)
	}
	childProbe, childGot, _ := strings.Cut(child, "\n")
	if childProbe+"\n" == probe {
		t.Fatalf("the child process hashes as this one does (%s): its seed is not fresh", childProbe)
	}
	if childGot != got {
		t.Fatalf("the child process, with another hash seed, reads\n%s\nthis one\n%s", childGot, got)
	}
}

// history runs one seeded sequence of Add, AddRow, Delete, MergeDelta,
// Clone and flatten over a relation and renders its Each order and its
// Lookup runs on either column for every key. early builds the indexes
// before the history (again after a Clone, which drops them; a flatten
// carries them) rather than after it.
func history(early bool) string {
	rng := rand.New(rand.NewSource(20261017))
	tuple := func() value.Tuple { return value.T(rng.Intn(23), fmt.Sprintf("v%d", rng.Intn(40))) }
	cols := [][]int{{0}, {1}}
	build := func(r *Relation) {
		for _, c := range cols {
			r.Lookup(c, value.T(0))
		}
	}
	r := New(2)
	if early {
		build(r)
	}
	for i := 0; i < 4000; i++ {
		switch op := rng.Intn(20); {
		case op < 8:
			r.Add(tuple(), int64(rng.Intn(5)-2))
		case op < 11:
			r.AddRow(keyed(tuple(), int64(rng.Intn(3)+1)))
		case op < 15:
			r.Delete(tuple())
		case op < 18:
			d := New(2)
			for j := rng.Intn(12); j > 0; j-- {
				d.Add(tuple(), int64(rng.Intn(5)-2))
			}
			r.MergeDelta(d)
		case op == 18:
			if r = r.Clone(); early {
				build(r)
			}
		default:
			r.Freeze()
			v := NewVersioned(r)
			for j := rng.Intn(4); j >= 0; j-- {
				d := New(2)
				for k := 0; k < minFlattenRows/2; k++ {
					d.Add(tuple(), int64(rng.Intn(3)-1))
				}
				v = v.Push(d)
			}
			f := v.Flat()
			r = f.cloneIndexed(f.Len())
		}
	}
	if !early {
		build(r)
	}
	var sb strings.Builder
	r.Each(func(row Row) { fmt.Fprintf(&sb, "%v×%d ", row.Tuple, row.Count) })
	sb.WriteByte('\n')
	for ci, c := range cols {
		for k := 0; k < 40; k++ {
			key := value.T(k)
			if ci == 1 {
				key = value.T(fmt.Sprintf("v%d", k))
			}
			fmt.Fprintf(&sb, "%v%v:", c, key)
			for _, row := range r.Lookup(c, key) {
				fmt.Fprintf(&sb, " %v", row.Tuple)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
