// Command graphene-bench regenerates the paper's evaluation (§6): every
// table and figure, printed with the paper's reference values alongside.
//
//	graphene-bench [-quick] [-json] [experiment...]
//
// Experiments: table4, fig4, table5, table6, table7, fig5, httpd,
// table8, security, all (default). With -json, each measured experiment also
// writes a machine-readable BENCH_<experiment>.json in the current
// directory. With -metrics, the per-syscall and per-RPC latency
// histograms recorded by the flight recorder are printed after the
// runs, showing the latency distribution behind the table means.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"graphene/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts for a fast pass")
	jsonOut := flag.Bool("json", false, "also write BENCH_<experiment>.json files")
	metricsOut := flag.Bool("metrics", false, "print per-syscall/per-RPC latency histograms after the runs")
	flag.Parse()
	which := flag.Args()
	if len(which) == 0 {
		which = []string{"all"}
	}
	want := make(map[string]bool)
	for _, w := range which {
		want[w] = true
	}
	all := want["all"]

	start := time.Now()
	run := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		fmt.Printf("=== %s ===\n", name)
		t0 := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(t0).Seconds())
	}
	// emit writes the experiment's machine-readable twin when -json is on.
	// merge receives the archive path and returns fresh rows folded into
	// whatever is already there (coordinate-keyed, see bench.Merge*JSON),
	// so a partial or -quick run refreshes only the cells it measured.
	emit := func(name string, merge func(path string) any) error {
		if !*jsonOut {
			return nil
		}
		path := "BENCH_" + name + ".json"
		return bench.WriteJSON(path, merge(path))
	}

	iters := 10
	t6Iters, t6Scale := 3, 1.0
	t7N, t7Iters := 500, 3
	fig5Counts := []int{2, 4, 8, 12, 16, 24, 32}
	fig5Msgs := 10000
	fig5PopProcs := []int{64, 128, 256, 512}
	// Total standing keys / total removals across the whole sandbox
	// (per-worker share = total/procs; see Fig5Population). Past ~50k keys
	// GC stalls at the 512-proc position start tripping the failover
	// detector and the windows measure elections instead.
	fig5Keys, fig5Churn := 49_152, 2048
	t5 := bench.DefaultTable5Scale()
	httpdScale := bench.DefaultHTTPDScale()
	if *quick {
		iters = 3
		t6Iters, t6Scale = 1, 0.2
		t7N, t7Iters = 200, 1
		fig5Counts = []int{2, 4, 8}
		fig5Msgs = 2000
		// Population smoke: two x-positions.
		fig5PopProcs = []int{64, 128}
		fig5Keys, fig5Churn = 4096, 1024
		t5 = bench.Table5Scale{Iters: 1, CompileKLoC: 2, HTTPReqs: 100, ShellIters: 3}
		httpdScale = bench.HTTPDScale{Workers: 2, RateRPS: 200, DurMS: 500, Conc: 4, TimeoutMS: 1000, ChaosMS: 250}
	}

	run("table4", func() error {
		rows, err := bench.Table4(iters)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderTable4(rows))
		return emit("table4", func(p string) any { return bench.MergeTable4JSON(p, rows) })
	})
	run("fig4", func() error {
		rows, err := bench.Fig4()
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFig4(rows))
		return emit("fig4", func(p string) any { return bench.MergeFig4JSON(p, rows) })
	})
	run("table5", func() error {
		rows, err := bench.Table5(t5)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderTable5(rows))
		return emit("table5", func(p string) any { return bench.MergeTable5JSON(p, rows) })
	})
	run("table6", func() error {
		rows, err := bench.Table6(t6Iters, t6Scale)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderTable6(rows))
		return emit("table6", func(p string) any { return bench.MergeTable6JSON(p, rows) })
	})
	run("table7", func() error {
		rows, err := bench.Table7(t7N, t7Iters)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderTable7(rows))
		return emit("table7", func(p string) any { return bench.MergeTable7JSON(p, rows) })
	})
	run("fig5", func() error {
		points, err := bench.Fig5(fig5Counts, fig5Msgs)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFig5(points))
		popPoints, err := bench.Fig5Population(fig5PopProcs, fig5Keys, fig5Churn)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFig5Population(popPoints))
		allPoints := append(points, popPoints...)
		return emit("fig5", func(p string) any { return bench.MergeFig5JSON(p, allPoints) })
	})
	run("httpd", func() error {
		rows, err := bench.HTTPD(httpdScale)
		if err != nil {
			return err
		}
		scaleRows, err := bench.HTTPDScaleSweep(bench.HTTPDSweepScales(*quick))
		if err != nil {
			return err
		}
		failRow, err := bench.HTTPDFailover(bench.DefaultHTTPDFailoverScale(*quick))
		if err != nil {
			return err
		}
		rows = append(rows, scaleRows...)
		rows = append(rows, failRow)
		fmt.Print(bench.RenderHTTPD(rows))
		if err := bench.CheckHTTPDSLO(rows, bench.DefaultHTTPDSLO()); err != nil {
			return fmt.Errorf("SLO gate: %w", err)
		}
		return emit("httpd", func(p string) any { return bench.MergeHTTPDJSON(p, rows) })
	})
	run("table8", func() error {
		fmt.Print(bench.RenderTable8())
		return nil
	})
	run("security", func() error {
		out, err := bench.RenderSecurity()
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	})
	if *metricsOut {
		fmt.Printf("=== metrics ===\n%s\n", bench.RenderMetrics())
	}
	fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
}
