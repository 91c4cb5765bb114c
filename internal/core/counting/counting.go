// Package counting is the counting algorithm's entry to the maintenance
// engine (package dred), which runs Algorithm 4.1 on every nonrecursive
// stratum. What is left here forces it on every stratum, as the paper's
// comparisons and the layered benchmark build it; the benchmark compiles
// against these names, and they go when it builds the engine itself.
package counting

import (
	"ivm/internal/core/dred"
	"ivm/internal/datalog"
	"ivm/internal/eval"
)

// ErrRecursive is returned when a recursive program is given: the paper
// proposes counting for nonrecursive views only (recursive counts can be
// infinite); use DRed instead.
var ErrRecursive = dred.ErrRecursive

// Config is the engine's configuration; its Algorithm is ignored.
type Config = dred.Config

// NewWithConfig materializes prog over base and returns the engine with
// counting forced on every stratum.
func NewWithConfig(prog *datalog.Program, base *eval.DB, cfg Config) (*dred.Engine, error) {
	cfg.Algorithm = dred.Counting
	return dred.NewWithConfig(prog, base, cfg)
}
