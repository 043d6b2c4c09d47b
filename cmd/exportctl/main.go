// exportctl runs the basic-premises threshold analysis — the paper's
// recommended annual review — at a given date, printing the premise
// findings, the bounds, the application clusters, and the recommended
// thresholds under each selection perspective.
//
// Usage:
//
//	exportctl                     # the June 1995 snapshot (Figure 11)
//	exportctl -date 1997.5        # a later review
//	exportctl -date 1995.45 -capability   # include Table 16
//	exportctl -project            # add the frontier projection
//	exportctl -serve http://localhost:8095   # query a running hpcexportd
//	exportctl -serve ... -attempts 8         # more retries against a flaky daemon
//	exportctl -metrics            # pretty-print a daemon's metric snapshot
//	exportctl -scrape             # raw /metrics text exposition
//	exportctl -slo                # burn-rate SLO verdicts (daemon needs -slo)
//	exportctl -flightrec          # flight-recorder captures and pinned anomalies
//	exportctl -cluster            # per-backend health from a running hpcexportgw
//	exportctl -version            # print build information and exit
//
// Remote queries run through the resilient service client: bounded
// retries with jittered backoff and per-attempt timeouts, so a daemon
// under fault injection (hpcexportd -fault-profile) still converges.
// -attempts raises the per-call attempt budget; when any retries were
// needed, a summary goes to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/threshold"
)

func main() {
	var (
		date       = flag.Float64("date", 1995.45, "review date as a fractional year")
		capability = flag.Bool("capability", false, "print foreign capability (Table 16)")
		project    = flag.Bool("project", false, "print the frontier projection")
		serveURL   = flag.String("serve", "", "query a running hpcexportd at this base URL instead of computing locally")
		metrics    = flag.Bool("metrics", false, "pretty-print a running daemon's metric snapshot and exit")
		scrape     = flag.Bool("scrape", false, "print a running daemon's raw /metrics exposition and exit")
		sloFlag    = flag.Bool("slo", false, "print a running daemon's burn-rate SLO evaluation and exit")
		flightrec  = flag.Bool("flightrec", false, "print a running daemon's flight-recorder contents and exit")
		cluster    = flag.Bool("cluster", false, "print a running hpcexportgw's per-backend cluster health and exit")
		attempts   = flag.Int("attempts", 0, "attempt budget per remote call, first try included (0 = client default)")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("exportctl", obs.BuildInfo())
		return
	}

	if *metrics || *scrape || *sloFlag || *flightrec || *cluster {
		base := *serveURL
		if base == "" {
			if *cluster {
				base = "http://" + gateway.DefaultAddr
			} else {
				base = "http://" + serve.DefaultAddr
			}
		}
		var err error
		switch {
		case *cluster:
			err = remoteCluster(base, *attempts)
		case *sloFlag:
			err = remoteSLO(base, *attempts)
		case *flightrec:
			err = remoteFlightRec(base, *attempts)
		default:
			err = remoteMetrics(base, *scrape, *attempts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "exportctl:", err)
			os.Exit(1)
		}
		return
	}

	if *serveURL != "" {
		if *capability {
			fmt.Fprintln(os.Stderr, "exportctl: -capability is computed locally; drop it when using -serve")
			os.Exit(1)
		}
		if err := remoteReview(*serveURL, *date, *project, *attempts); err != nil {
			fmt.Fprintln(os.Stderr, "exportctl:", err)
			os.Exit(1)
		}
		return
	}

	s, err := threshold.Take(*date)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exportctl:", err)
		os.Exit(1)
	}

	fmt.Printf("Threshold analysis at %.2f\n", s.Date)
	fmt.Println("==========================")
	fmt.Printf("lower bound (line A):   %v — %s\n", s.LowerBound, s.LowerBoundSystem.Name)
	fmt.Printf("maximum available (D):  %v — %s\n", s.MaxAvailable, s.MaxAvailableSystem.Name)
	fmt.Println()

	fmt.Println("basic premises:")
	for _, p := range s.Premises {
		fmt.Printf("  %s\n", p)
	}
	fmt.Println()

	if lo, hi, ok := s.Range(); ok {
		fmt.Printf("valid threshold range: %v – %v\n", lo, hi)
	} else {
		fmt.Println("NO VALID THRESHOLD RANGE: the premises do not hold")
	}
	fmt.Println()

	fmt.Printf("applications above the lower bound: %d\n", len(s.Above))
	for _, c := range s.Clusters {
		marker := " "
		if c.Significant() {
			marker = "*"
		}
		fmt.Printf("  %s %s\n", marker, c)
	}
	fmt.Println()

	for _, p := range []threshold.Perspective{
		threshold.ControlMaximal, threshold.ApplicationDriven,
	} {
		if rec, ok := s.Recommend(p); ok {
			fmt.Printf("recommended threshold (%s): %v\n", p, rec)
		}
	}

	if *project {
		fmt.Println()
		fit, err := threshold.FrontierProjection(1992, 1999)
		if err != nil {
			fmt.Fprintln(os.Stderr, "exportctl: projection:", err)
			os.Exit(1)
		}
		fmt.Printf("frontier growth: %s\n", fit)
		for _, target := range []float64{7500, 16000, 100000} {
			if yr, err := fit.YearReaching(target); err == nil {
				fmt.Printf("  frontier reaches %.0f Mtops ≈ %.1f\n", target, yr)
			}
		}
		if yr, err := threshold.YearAllMinimaUncontrollable(); err == nil {
			fmt.Printf("  all curated application minima overtaken ≈ %.1f\n", yr)
		}
	}

	if *capability {
		fmt.Println()
		rows, err := threshold.Table16(*date)
		if err != nil {
			fmt.Fprintln(os.Stderr, "exportctl: capability:", err)
			os.Exit(1)
		}
		fmt.Println("foreign capability (applications above the old 1,500 Mtops threshold):")
		for _, r := range rows {
			fmt.Printf("  %-55s min %8.0f  RU:%-3v PRC:%-3v IN:%-3v\n",
				r.Application.Name, float64(r.Application.Min),
				yn(r.Capable[catalog.Russia]), yn(r.Capable[catalog.PRC]), yn(r.Capable[catalog.India]))
		}
	}
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// remoteClient builds the resilient service client for one command run.
func remoteClient(base string, attempts int) (*client.Client, error) {
	return client.NewWithOptions(base, client.Options{MaxAttempts: attempts})
}

// reportRetries notes on stderr when a command needed retries to finish.
func reportRetries(api *client.Client) {
	if rs := api.RetryStats(); rs.Retries > 0 {
		fmt.Fprintf(os.Stderr, "exportctl: %d of %d attempts were retries (%d transient failures)\n",
			rs.Retries, rs.Attempts, rs.Failures)
	}
}

// remoteMetrics prints a running daemon's telemetry: the raw text
// exposition under -scrape, otherwise a pretty-printed snapshot.
func remoteMetrics(base string, raw bool, attempts int) error {
	api, err := remoteClient(base, attempts)
	if err != nil {
		return err
	}
	defer reportRetries(api)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	if raw {
		text, err := api.MetricsText(ctx)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}

	snap, err := api.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("metrics from %s (%d instruments)\n", base, len(snap.Metrics))
	fmt.Println("==========================")
	for _, m := range snap.Metrics {
		switch m.Kind {
		case obs.KindHistogram:
			fmt.Printf("  %-12s %s%s  count %d  sum %d", m.Kind, m.Name, m.Labels, m.Count, m.Sum)
			if m.Count > 0 {
				fmt.Printf("  mean %.1f", m.Value)
			}
			fmt.Println()
		default:
			fmt.Printf("  %-12s %s%s  %g\n", m.Kind, m.Name, m.Labels, m.Value)
		}
	}
	return nil
}

// remoteSLO prints a running daemon's burn-rate evaluation: one line per
// route and signal with the three window burns and the verdict.
func remoteSLO(base string, attempts int) error {
	api, err := remoteClient(base, attempts)
	if err != nil {
		return err
	}
	defer reportRetries(api)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	resp, err := api.SLO(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("SLO evaluation from %s (profile %s)\n", base, resp.Profile)
	fmt.Println("==========================")
	for _, r := range resp.Routes {
		fmt.Printf("%s  (%s)\n", r.Route, r.Objective)
		for _, sig := range r.Signals {
			fmt.Printf("  %-13s %-5s", sig.Signal, sig.State)
			for _, w := range sig.Windows {
				fmt.Printf("  %s burn %.2f budget %.3f", w.Window, w.Burn, w.Budget)
			}
			fmt.Println()
		}
	}
	return nil
}

// remoteFlightRec prints a running daemon's flight recorder: the pinned
// anomaly groups first (they are why anyone looks), then the rolling
// window of recent captures, newest first.
func remoteFlightRec(base string, attempts int) error {
	api, err := remoteClient(base, attempts)
	if err != nil {
		return err
	}
	defer reportRetries(api)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	resp, err := api.FlightRec(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("flight recorder from %s: %d captures, %d pinned groups\n",
		base, resp.Count, len(resp.Pins))
	fmt.Println("==========================")
	for _, p := range resp.Pins {
		fmt.Printf("pin #%d  trigger %s\n", p.Seq, p.Trigger)
		for i := range p.Captures {
			printCapture(&p.Captures[i])
		}
	}
	if len(resp.Pins) > 0 && len(resp.Captures) > 0 {
		fmt.Println("recent captures:")
	}
	for i := range resp.Captures {
		printCapture(&resp.Captures[i])
	}
	return nil
}

// printCapture renders one flight-recorder capture on a single line.
func printCapture(c *obs.Capture) {
	fmt.Printf("  #%-6d %-4s %-16s %d  %8.2fms", c.Seq, c.Method, c.Route,
		c.Status, float64(c.LatencyNs)/1e6)
	if c.TraceID != "" {
		fmt.Printf("  trace %s", c.TraceID)
	}
	if c.Fault != "" {
		fmt.Printf("  fault %s", c.Fault)
	}
	if c.Degraded {
		fmt.Print("  degraded")
	}
	if c.WAL != "" {
		fmt.Printf("  wal %s", c.WAL)
	}
	if c.Breaker != "" {
		fmt.Printf("  breaker %q", c.Breaker)
	}
	if len(c.Anomalies) > 0 {
		fmt.Printf("  anomalies %v", c.Anomalies)
	}
	fmt.Println()
}

// remoteCluster prints a gateway's aggregated cluster view: the verdict
// line and one row per backend with its routing state and probe history.
func remoteCluster(base string, attempts int) error {
	api, err := remoteClient(base, attempts)
	if err != nil {
		return err
	}
	defer reportRetries(api)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var hr gateway.HealthResponse
	if err := api.GetJSON(ctx, "/v1/healthz", nil, &hr); err != nil {
		return err
	}
	if hr.Members == 0 && len(hr.Backends) == 0 {
		return fmt.Errorf("%s answers /v1/healthz but reports no cluster members — point -cluster at an hpcexportgw, not a backend", base)
	}
	fmt.Printf("cluster via %s: %s — %d/%d backends healthy, %d requests, up %.0fs\n",
		base, hr.Status, hr.Healthy, hr.Members, hr.Requests, hr.UptimeSeconds)
	fmt.Println("==========================")
	fmt.Printf("%-30s %-9s %-12s %9s %7s %7s %8s\n",
		"backend", "state", "last", "requests", "errors", "drains", "rejoins")
	for _, b := range hr.Backends {
		last := b.LastStatus
		if last == "" {
			last = "-"
		}
		fmt.Printf("%-30s %-9s %-12s %9d %7d %7d %8d\n",
			b.URL, b.State, last, b.Requests, b.Errors, b.Drains, b.Rejoins)
	}
	return nil
}

// remoteReview prints the review by querying a running hpcexportd through
// the service client instead of computing the snapshot locally.
func remoteReview(base string, date float64, project bool, attempts int) error {
	api, err := remoteClient(base, attempts)
	if err != nil {
		return err
	}
	defer reportRetries(api)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	snap, err := api.Threshold(ctx, date, project)
	if err != nil {
		return err
	}

	fmt.Printf("Threshold analysis at %.2f (served by %s)\n", snap.Date, base)
	fmt.Println("==========================")
	fmt.Printf("lower bound (line A):   %.0f Mtops — %s\n", snap.LowerBoundMtops, snap.LowerBoundSystem)
	fmt.Printf("maximum available (D):  %.0f Mtops — %s\n", snap.MaxAvailableMtops, snap.MaxAvailableSystem)
	fmt.Println()

	fmt.Println("basic premises:")
	for _, p := range snap.Premises {
		verdict := "FAILS"
		if p.Holds {
			verdict = "holds"
		}
		fmt.Printf("  %s: %s (strength %.2f) — %s\n", p.Premise, verdict, p.Strength, p.Evidence)
	}
	fmt.Println()

	if snap.Range != nil {
		fmt.Printf("valid threshold range: %.0f – %.0f Mtops\n", snap.Range.LoMtops, snap.Range.HiMtops)
	} else {
		fmt.Println("NO VALID THRESHOLD RANGE: the premises do not hold")
	}
	fmt.Println()

	for _, c := range snap.Clusters {
		marker := " "
		if c.Significant {
			marker = "*"
		}
		fmt.Printf("  %s %s cluster: %d applications starting at %.0f Mtops\n",
			marker, c.Category, c.Apps, c.StartMtops)
	}
	fmt.Println()

	for _, rec := range snap.Recommendations {
		fmt.Printf("recommended threshold (%s): %.0f Mtops\n", rec.Perspective, rec.Mtops)
	}

	if snap.Projection != nil {
		fmt.Println()
		fmt.Printf("frontier growth: %s\n", snap.Projection.Formula)
		for _, tgt := range snap.Projection.Reaches {
			fmt.Printf("  frontier reaches %.0f Mtops ≈ %.1f\n", tgt.Mtops, tgt.Year)
		}
	}
	return nil
}
