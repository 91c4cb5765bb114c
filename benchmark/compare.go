package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// baselineJSON is the seed-commit calibration (calibrate.py -same-seed
// -write): for every (workload, bounded metric) the median over twenty
// runs of seed 1, made in two sets some fifteen minutes apart so that the
// host's drift is in them, the spread between the quartiles and
// (max−min), both as shares of the median. BENCHMARK.json's schema has no
// place for it, so it lives here.
//
//go:embed baseline.json
var baselineJSON []byte

type baselineStat struct {
	Range float64 `json:"range_share"`
}

// baseline is what -compare reads of baseline.json; calibrate.py also
// records there each median and quartile spread, and the commit, run
// count and run length it measured.
type baseline struct {
	Workloads map[string]map[string]baselineStat `json:"workloads"`
}

func loadBaseline() (*baseline, error) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return nil, fmt.Errorf("baseline.json: %w", err)
	}
	return &b, nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// judge compares metric d of run b against run a. worsening is the
// change as a share of a, positive when b is worse. spread is how far
// apart the calibration runs of the same code and seed lay, (max−min) ÷
// median: one pair of runs cannot resolve a bound narrower than that,
// whatever the pair shows.
func judge(d metricDef, a, b, spread float64) (verdict string, worsening float64) {
	worsening = ratio(b-a, a)
	if d.better == "higher" {
		worsening = -worsening
	}
	switch {
	case spread > d.bound:
		return "unresolved", worsening
	case worsening > d.bound:
		return "worse", worsening
	case worsening < -d.bound:
		return "better", worsening
	}
	return "same", worsening
}

// compareReports judges every bounded (metric, workload) of report b
// against report a and, where both ran the same stream, requires every
// count metric to be identical. Every pair that held its bound at
// calibration is gated, timings included: the comparison fails when one
// of them is worse or a count differs. A pair that did not hold it is
// printed as unresolved, the note the issue's calibration rule asks for,
// and fails nothing.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	base, err := loadBaseline()
	if err != nil {
		return err
	}
	return compare(w, a, b, base)
}

func compare(w io.Writer, a, b *report, base *baseline) error {
	byName := make(map[string]*result)
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	bad := 0
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			continue
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := ra.Metrics[d.name], rb.Metrics[d.name]
				if d.bound == 0 || (va == 0 && vb == 0) {
					continue // not judged, or the workload does not have this metric
				}
				spread := math.Inf(1) // never calibrated: no pair of runs resolves it
				if st, ok := base.Workloads[ra.Workload][d.name]; ok {
					spread = st.Range
				}
				verdict, worsening := judge(d, va, vb, spread)
				if verdict == "worse" {
					bad++
				}
				fmt.Fprintf(w, "%-22s %-26s %12.6g -> %12.6g %-5s %+7.2f%% (bound %.0f%%) %s\n",
					ra.Workload, d.name, va, vb, d.unit, 100*worsening, 100*d.bound, verdict)
			}
		}
		if ra.StreamSHA256 != rb.StreamSHA256 || ra.Traced != rb.Traced {
			fmt.Fprintf(w, "%-22s count metrics not compared: the runs differ in seed, -seconds or -trace\n", ra.Workload)
			continue
		}
		for _, d := range perLayer {
			if va, vb := ra.Metrics[d.name], rb.Metrics[d.name]; d.count && va != vb {
				bad++
				fmt.Fprintf(w, "%-22s %-26s %12.6g -> %12.6g %-5s count DIFFERENT\n", ra.Workload, d.name, va, vb, d.unit)
			}
		}
		fmt.Fprintf(w, "%-22s count metrics compared exactly over stream %.12s\n", ra.Workload, ra.StreamSHA256)
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics worse or counts different", bad)
	}
	return nil
}
