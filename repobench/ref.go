package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pbsim/internal/experiment"
)

// reference is the full-simulation oracle for one simulation workload
// and seed. For the committed seed it is read from ref/; for any other
// seed it is simulated before timing starts.
type reference struct {
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Warmup     int64       `json:"warmup"`
	N          int64       `json:"n"`
	Benchmarks []string    `json:"benchmarks"`
	Base       [][]float64 `json:"base"`               // [benchmark][row] cycles, full detailed simulation
	Enhanced   [][]float64 `json:"enhanced,omitempty"` // pb-full: with the 128-entry precomputation table
	Sums       []int       `json:"sums,omitempty"`     // pb-sampled: full Table 9 sums of ranks, per factor
	// Tables is pb-full's rendered Table 9 + Table 12 output; pinned
	// only for the committed seed (stored beside the JSON as text).
	Tables string `json:"-"`
}

func refPath(dir, wl string) string { return filepath.Join(dir, "ref", wl+".json") }
func tablePath(dir string) string   { return filepath.Join(dir, "ref", wlFull+".tables.txt") }

// loadReference reads the committed reference of a workload.
func loadReference(dir, wl string) (*reference, error) {
	data, err := os.ReadFile(refPath(dir, wl))
	if err != nil {
		return nil, fmt.Errorf("committed reference: %w (regenerate with --regen)", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("committed reference %s: %w", refPath(dir, wl), err)
	}
	if wl == wlFull {
		t, err := os.ReadFile(tablePath(dir))
		if err != nil {
			return nil, fmt.Errorf("committed tables: %w (regenerate with --regen)", err)
		}
		ref.Tables = string(t)
	}
	return &ref, nil
}

// computeReference simulates the oracle for a seed. pb-full goes
// around the suite machinery entirely (direct sim calls per row);
// pb-sampled needs the full suite's sums of ranks too, so it runs the
// unsampled suite at the sampled window.
func computeReference(wl string, seed uint64) (*reference, error) {
	st, err := setupSim(wl, seed)
	if err != nil {
		return nil, err
	}
	ref := &reference{Workload: wl, Seed: seed, Warmup: st.win.warmup, N: st.win.n}
	for _, w := range st.ws {
		ref.Benchmarks = append(ref.Benchmarks, w.Name)
	}
	switch wl {
	case wlFull:
		if ref.Base, err = directCycles(st, nil); err != nil {
			return nil, err
		}
		profiles, err := profilesFor(st)
		if err != nil {
			return nil, err
		}
		if ref.Enhanced, err = directCycles(st, profiles); err != nil {
			return nil, err
		}
	case wlSampled:
		s, err := experiment.RunSuiteCtx(context.Background(), st.options(&runRecorder{}, workers()))
		if err != nil {
			return nil, err
		}
		for _, r := range s.Results {
			ref.Base = append(ref.Base, r.Responses)
		}
		ref.Sums = s.Sums
	default:
		return nil, fmt.Errorf("workload %s has no simulation reference", wl)
	}
	return ref, nil
}

func writeJSON(p string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(p, append(data, '\n'), 0o644)
}

func readJSON(p string, v any) error {
	data, err := os.ReadFile(p)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// regenerate rewrites the committed references for the committed seed.
// pb-full's per-row reference comes from direct simulation and must
// agree with the suites before anything is written.
func regenerate(dir string) error {
	for _, wl := range []string{wlFull, wlSampled} {
		ref, err := computeReference(wl, committedSeed)
		if err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		if wl == wlFull {
			st, err := setupSim(wl, committedSeed)
			if err != nil {
				return err
			}
			out, err := runFull(context.Background(), st, &runRecorder{}, nil, -1)
			if err != nil {
				return err
			}
			if n := countMismatches(out.base, ref.Base) + countMismatches(out.enh, ref.Enhanced); n > 0 {
				return fmt.Errorf("pb-full: %d suite rows disagree with direct simulation; not writing a reference", n)
			}
			if err := os.WriteFile(tablePath(dir), []byte(out.text), 0o644); err != nil {
				return err
			}
		}
		if err := writeJSON(refPath(dir, wl), ref); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "repobench: wrote %s\n", refPath(dir, wl))
	}
	return nil
}
