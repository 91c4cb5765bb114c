package eval

// Helpers the external tests (package eval_test) share with this package's.
var (
	LoadDB     = loadDB
	WantCounts = wantCounts
)
