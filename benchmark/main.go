// Command benchmark is the repository's one repeatable benchmark: five
// workloads on the Graphene personality at shipped defaults, end-to-end
// metrics from untraced rounds, per-layer metrics from a traced run and
// direct probes, every output checked. See README.md in this directory.
//
//	go run ./benchmark -seed 1                       every workload, timed then traced
//	go run ./benchmark -seed 1 -out a.json           … and save the results
//	go run ./benchmark -compare a.json b.json        judge two saved sets against the bounds
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                                  one run in the BENCHMARK.json contract:
//	                                                  the last stdout line is the result object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"graphene/internal/host"
)

// metricDef declares one metric: its unit, which way is better, and for
// end-to-end metrics the share of the parent's median it may worsen by.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system would see. Failures are not a
// metric here because the result object carries attempted/failed itself
// and a healthy run has none (a metric that is always 0 has no bound).
//
// The bounds come from measurement on the 2-core reference box: ten runs
// of each workload on ten seeds spread (interquartile distance over
// median) by up to 7 % in ops_per_s, 4 % in p50_us, 8 % in p90_us, 13 % in
// setup_s and 0.6 % in retained_mb, and a bound is at least three times
// the widest spread seen for its metric on any workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.15},
	{"p90_us", "us", "lower", 0.25},
	{"retained_mb", "MB", "lower", 0.05},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run, in the shape the contract's last line
// wants plus what -compare needs.
type result struct {
	Workload  string               `json:"workload,omitempty"`
	Seed      int64                `json:"seed,omitempty"`
	Traced    bool                 `json:"traced,omitempty"`
	Rounds    int                  `json:"rounds,omitempty"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metric    `json:"metrics"`
	PerRound  map[string][]float64 `json:"per_round,omitempty"`
	Notes     []string             `json:"notes,omitempty"`

	wrong int // failed units whose output was incorrect (not just an error return)
	stale int // ns_churn's ipc.stale_lookups over every round of the run
}

// maxFailFrac is the share of units that may fail (an error return, a
// refusal, a timeout) before the run counts as incorrect. A wrong output
// is never tolerated. The repository's RPC plane answers ETIMEDOUT after
// 150 ms without a reply, so a host stall of that length fails a unit
// that is not the program's fault; such a unit is counted and named, and
// one in a few million does not void the run.
const maxFailFrac = 0.001

// judgeCorrect decides res.Correct once every round is accounted.
func (res *result) judgeCorrect() {
	res.Correct = res.Attempted > 0 && res.wrong == 0 &&
		float64(res.Failed) <= maxFailFrac*float64(res.Attempted)
}

// contractLine is exactly what the driver reads from the last line.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func oddAtMost(n int) int {
	if n < 1 {
		return 1
	}
	if n%2 == 0 {
		return n - 1
	}
	return n
}

// roundValues turns one untraced round into its end-to-end readings.
func roundValues(r *roundRec) map[string]float64 {
	lat := sortedCopy(r.lat)
	v := map[string]float64{
		"setup_s":     r.timedStart.Sub(r.boot).Seconds(),
		"p50_us":      float64(percentile(lat, 0.50)) / 1e3,
		"p90_us":      float64(percentile(lat, 0.90)) / 1e3,
		"retained_mb": r.retainedMB,
	}
	if r.elapsed > 0 {
		v["ops_per_s"] = float64(r.completed) / r.elapsed.Seconds()
	}
	return v
}

// account folds a round's correctness into res and names a round with
// misses in the notes.
func account(res *result, phase string, round int, r *roundRec) {
	res.Attempted += r.attempted
	res.Failed += r.failed
	res.wrong += r.wrong
	res.stale += r.stale
	for _, m := range r.misses {
		res.Notes = append(res.Notes, fmt.Sprintf("%s round %d: %s", phase, round, m))
	}
}

// runTimed measures w's end-to-end metrics: rounds untraced rounds, each
// on a fresh machine, each metric the median of its per-round values.
func runTimed(w *workload, cfg runConfig) (*result, error) {
	seed, rounds, units := cfg.seed, cfg.timedRounds(), cfg.unitsOf(w)
	prev := host.SetTraceLevel(host.TraceOff)
	defer host.SetTraceLevel(prev)
	res := &result{Workload: w.name, Seed: seed, Rounds: rounds,
		Metrics: map[string]metric{}, PerRound: map[string][]float64{}}
	for i := 0; i < rounds; i++ {
		r, err := runRound(w, seed, i, units, false, nil)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		account(res, "timed", i, r)
		vals := roundValues(r)
		for name, v := range vals {
			res.PerRound[name] = append(res.PerRound[name], v)
		}
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "%s round %d:", w.name, i)
			for _, def := range endToEnd {
				fmt.Fprintf(os.Stderr, " %s=%.4f", def.Name, vals[def.Name])
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	for _, def := range endToEnd {
		res.Metrics[def.Name] = metric{median(res.PerRound[def.Name]), def.Unit}
	}
	res.judgeCorrect()
	return res, nil
}

func printResult(res *result, defs []metricDef) {
	kind := "timed"
	if res.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s  (%s, seed %d, %d rounds, %d units attempted, %d failed)\n",
		res.Workload, kind, res.Seed, res.Rounds, res.Attempted, res.Failed)
	for _, def := range defs {
		m, ok := res.Metrics[def.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %16.4f %-6s", def.Name, m.Value, m.Unit)
		if vals := res.PerRound[def.Name]; len(vals) > 1 {
			spread := iqrFrac(vals)
			line += fmt.Sprintf("  round IQR %5.1f%%", 100*spread)
			if def.Bound > 0 && spread > def.Bound {
				line += "  UNRESOLVED (spread over bound)"
			}
		}
		fmt.Println(line)
	}
	for _, n := range res.Notes {
		fmt.Println("  ! " + n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload in the BENCHMARK.json contract (default: all, timed then traced)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 12, "measuring time per run; one round is about a second")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from the traced run")
		rounds   = flag.Int("rounds", 0, "override the number of rounds (default: odd, from -seconds)")
		out      = flag.String("out", "", "write every result as JSON to this file (input of -compare)")
		traceOut = flag.String("trace-out", defaultTraceDir, "directory for the traced run's span files")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments")
		list     = flag.Bool("list", false, "print BENCHMARK.json as this package declares it")
		verbose  = flag.Bool("v", false, "print every timed round's values on standard error")
	)
	flag.Parse()

	switch {
	case *list:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(declaredSpec()); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, rounds: *rounds, verbose: *verbose, traceDir: *traceOut}

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		var res *result
		var err error
		defs := endToEnd
		if *trace != 0 {
			res, err = runTraced(w, cfg)
			defs = perLayer
		} else {
			res, err = runTimed(w, cfg)
		}
		if err != nil {
			fatal(err)
		}
		printResult(res, defs)
		line, err := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	var all []*result
	correct := true
	for _, w := range workloads {
		timed, err := runTimed(w, cfg)
		if err != nil {
			fatal(err)
		}
		printResult(timed, endToEnd)
		traced, err := runTraced(w, cfg)
		if err != nil {
			fatal(err)
		}
		printResult(traced, perLayer)
		all = append(all, timed, traced)
		correct = correct && timed.Correct && traced.Correct
	}
	if *out != "" {
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, data, 0644); err != nil {
			fatal(err)
		}
	}
	if !correct {
		fatal(fmt.Errorf("the run is incorrect; see the rounds named above"))
	}
}

// defaultTraceDir is inside the checkout (and in .gitignore): the
// contract allows no writes elsewhere.
const defaultTraceDir = "benchmark/out"

// runConfig is what the flags decide.
type runConfig struct {
	seed     int64
	seconds  int
	rounds   int
	units    int // units per round; 0 = the workload's own size (the self-test shrinks it)
	verbose  bool
	traceDir string
}

func (c runConfig) unitsOf(w *workload) int {
	if c.units > 0 {
		return c.units
	}
	return w.units
}

// timedRounds is the number of untraced rounds of a timed run: odd, one
// per second of -seconds, unless -rounds overrides it.
func (c runConfig) timedRounds() int {
	if c.rounds > 0 {
		return c.rounds
	}
	return oddAtMost(c.seconds)
}

// tracedRounds is how many rounds each part of a traced run (untraced
// reference, traced, native baseline) gets: the run has about seven
// second-long rounds plus the probes, so a quarter of -seconds, at most 3.
func (c runConfig) tracedRounds() int {
	if c.rounds > 0 {
		return c.rounds
	}
	n := c.seconds / 4
	if n < 1 {
		n = 1
	}
	if n > 3 {
		n = 3
	}
	return n
}

// declaredRunSeconds is the run length BENCHMARK.json asks the driver for:
// 19 rounds, 14-25 s of wall clock per run on the reference box.
const declaredRunSeconds = 20

// benchmarkSpec is the content of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// declaredSpec builds BENCHMARK.json from the declarations in this
// package. `go run ./benchmark -list > BENCHMARK.json` rewrites the file
// after a declaration changes; the self-test fails until it matches.
func declaredSpec() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: declaredRunSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadDecl{w.name, w.why})
	}
	return spec
}

func spanFile(dir, workload string) string {
	return filepath.Join(dir, workload+".spans.json")
}
