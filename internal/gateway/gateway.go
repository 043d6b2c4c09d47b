// Package gateway implements hpcexportgw, the cluster front door: a
// stdlib-only reverse proxy that consistent-hashes canonical decision
// keys — the same keys the backends' LRU and WAL already agree on —
// across N hpcexportd replicas.
//
//	GET/POST /v1/license  keyed routing to the key's one owner;
//	                      batches scatter-gather across owner shards
//	GET  /v1/healthz      aggregated cluster health (gateway + every backend)
//	GET  /metrics         the gateway's own Prometheus exposition
//	GET  /v1/metrics      the same registry as a JSON snapshot
//	GET  /v1/flightrec    the gateway's flight recorder (5xx answers pin)
//	GET  /v1/watch        501: streams don't merge; connect to a backend
//	anything else         proxied to the URI-hash owner (deterministic warming)
//
// Every forward goes to one owner at a time, on the caller's context
// bounded by ForwardTimeout, so a client that gives up stops the backend
// work too. The determinism contract is what makes routing safe: every
// replica answers a decision key with byte-identical bytes, so failing a
// key over to the next ring owner, or reassembling a batch from several
// owners' answers, changes nothing the client can see.
package gateway

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Defaults applied by New to zero Config fields.
const (
	DefaultAddr           = "localhost:8094"
	DefaultProbeEvery     = time.Second
	DefaultProbeTimeout   = 500 * time.Millisecond
	DefaultRejoinAfter    = 3
	DefaultAttempts       = 4
	DefaultRetryBackoff   = 2 * time.Millisecond
	DefaultForwardTimeout = 10 * time.Second
	DefaultDrainTimeout   = 5 * time.Second
	DefaultMaxBatch       = 256
)

// maxBodyBytes bounds request bodies the gateway will buffer, matching
// the backends' own limit.
const maxBodyBytes = 1 << 20

// Config configures a Gateway. The zero value of any field selects the
// documented default.
type Config struct {
	// Addr is the listen address for ListenAndServe.
	Addr string

	// Backends is the static member list: base URLs of hpcexportd
	// instances ("http://host:port"). At least one of Backends and
	// MembershipFile must be given.
	Backends []string

	// MembershipFile, when set, is the authoritative member list: one
	// backend URL per line, blank lines and #-comments ignored. The file
	// is re-read when its mtime changes (checked on the probe cadence);
	// Backends seeds the member set until the file first parses. A
	// missing or empty file never drops the cluster to zero members.
	MembershipFile string

	// VNodes is the virtual-node count per member on the hash ring.
	VNodes int

	// ProbeEvery is the health-probe (and membership-check) cadence;
	// ProbeTimeout bounds one probe exchange.
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration

	// RejoinAfter is how many consecutive healthy probes a drained
	// backend must pass before new keys route to it again. Draining is
	// immediate on the first bad probe; rejoining is deliberately slower
	// so a flapping backend stays out.
	RejoinAfter int

	// Attempts bounds forwarding attempts per request: transport errors
	// fail over to the next ring owner immediately, retryable statuses
	// (429/5xx overload) retry the same owner after RetryBackoff.
	Attempts     int
	RetryBackoff time.Duration

	// MaxBatch bounds the batch size the gateway will scatter-gather;
	// larger batches are forwarded whole so the owning backend renders
	// its canonical rejection.
	MaxBatch int

	// ForwardTimeout bounds one whole forward (all attempts), on top of
	// the caller's own deadline; DrainTimeout bounds graceful shutdown.
	ForwardTimeout time.Duration
	DrainTimeout   time.Duration

	// FlightCapacity sizes the gateway's flight-recorder ring; 0 selects
	// obs.DefaultRecorderCapacity, negative disables the recorder.
	FlightCapacity int

	// Logger receives membership and drain events; nil discards them.
	Logger *slog.Logger

	// Clock supplies the time base for uptime and latency accounting;
	// nil means the wall clock. Sleep performs retry-backoff pauses; nil
	// means time.Sleep.
	Clock func() time.Time
	Sleep func(time.Duration)

	// HTTPClient performs backend exchanges; nil builds a pooled default.
	HTTPClient *http.Client
}

// Gateway is the routing front door. Create one with New, start its
// background prober with Start, serve with Serve or Handler, and join
// everything with Close.
type Gateway struct {
	cfg     Config
	clock   func() time.Time
	sleep   func(time.Duration)
	logger  *slog.Logger
	start   time.Time
	handler http.Handler
	client  *http.Client

	reg       *obs.Registry
	flightrec *obs.Recorder

	// mu guards the member set and the ring built over it; the two only
	// change together.
	mu       sync.RWMutex
	backends map[string]*backend
	members  []string // sorted
	ring     *ring

	// membership-file state, also under mu.
	memberMtime  time.Time
	memberLoaded bool

	requests atomic.Uint64

	// loopWG joins the prober goroutine; Close waits on it.
	loopWG sync.WaitGroup

	requestsC   *obs.Counter
	retries     *obs.Counter
	noHealthy   *obs.Counter
	reloads     *obs.Counter
	batches     *obs.Counter
	batchFanout *obs.Counter
}

// New builds a Gateway from the config, applying defaults to zero
// fields, and seeds the member set (Backends, or the membership file if
// it already parses).
func New(cfg Config) (*Gateway, error) {
	if cfg.Addr == "" {
		cfg.Addr = DefaultAddr
	}
	if len(cfg.Backends) == 0 && cfg.MembershipFile == "" {
		return nil, errors.New("gateway: no backends: give Backends or MembershipFile")
	}
	if cfg.VNodes == 0 {
		cfg.VNodes = defaultVNodes
	}
	if cfg.VNodes < 1 {
		return nil, errors.New("gateway: VNodes must be at least 1")
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = DefaultProbeEvery
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.RejoinAfter == 0 {
		cfg.RejoinAfter = DefaultRejoinAfter
	}
	if cfg.RejoinAfter < 1 {
		return nil, errors.New("gateway: RejoinAfter must be at least 1")
	}
	if cfg.Attempts == 0 {
		cfg.Attempts = DefaultAttempts
	}
	if cfg.Attempts < 1 {
		return nil, errors.New("gateway: Attempts must be at least 1")
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.ForwardTimeout == 0 {
		cfg.ForwardTimeout = DefaultForwardTimeout
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	clock := cfg.Clock
	if clock == nil {
		//hpcvet:allow detrand the gateway's documented default is the wall clock; deterministic callers inject Config.Clock
		clock = time.Now
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}

	g := &Gateway{
		cfg:      cfg,
		clock:    clock,
		sleep:    sleep,
		logger:   logger,
		client:   client,
		reg:      obs.NewRegistry(),
		backends: make(map[string]*backend),
		ring:     buildRing(nil, cfg.VNodes),
	}
	if cfg.FlightCapacity >= 0 {
		g.flightrec = obs.NewRecorder(cfg.FlightCapacity)
	}
	g.requestsC = g.reg.Counter("gateway_requests_total", "requests admitted through the gateway")
	g.retries = g.reg.Counter("gateway_retries_total", "forwarding retries (transport failover and retryable statuses)")
	g.noHealthy = g.reg.Counter("gateway_no_healthy_fallback_total", "keyed routes that fell back to a drained member because none were healthy")
	g.reloads = g.reg.Counter("gateway_membership_reloads_total", "membership changes applied (including the initial set)")
	g.batches = g.reg.Counter("gateway_batches_total", "batch requests scatter-gathered")
	g.batchFanout = g.reg.Counter("gateway_batch_fanout_total", "owner shards fanned out across all batches")
	g.reg.Func("gateway_members", "current member count", obs.KindGauge, func() float64 {
		g.mu.RLock()
		defer g.mu.RUnlock()
		return float64(len(g.members))
	})
	g.reg.Func("gateway_healthy_backends", "members currently accepting new keys", obs.KindGauge, func() float64 {
		g.mu.RLock()
		defer g.mu.RUnlock()
		n := 0
		for _, m := range g.members {
			if g.backends[m].state.Load() == stateHealthy {
				n++
			}
		}
		return float64(n)
	})

	g.setMembers(cfg.Backends)
	g.reloadMembership()
	if len(g.memberList()) == 0 {
		return nil, errors.New("gateway: member set resolved empty")
	}
	g.start = clock()
	g.handler = g.middleware(g.routes())
	return g, nil
}

// Handler returns the gateway's http.Handler.
func (g *Gateway) Handler() http.Handler { return g.handler }

// Members returns the current member URLs, sorted.
func (g *Gateway) Members() []string { return g.memberList() }

// Registry exposes the gateway's metrics registry (tests and the
// daemon's own reporting read it).
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// Start launches the background prober: one goroutine, bound to ctx,
// that re-reads membership and probes every backend's /v1/healthz on the
// ProbeEvery cadence. Tests drive probeOnce / reloadMembership directly
// instead and never call Start.
func (g *Gateway) Start(ctx context.Context) {
	g.loopWG.Add(1)
	go func() {
		defer g.loopWG.Done()
		t := time.NewTicker(g.cfg.ProbeEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.reloadMembership()
				g.probeOnce(ctx)
			}
		}
	}()
}

// Close joins the prober goroutine, after its context is cancelled.
// Forwards run on their requests' goroutines and need no joining.
func (g *Gateway) Close() {
	g.loopWG.Wait()
}

// routes builds the endpoint mux.
func (g *Gateway) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/license", g.handleLicenseGet)
	mux.HandleFunc("POST /v1/license", g.handleLicensePost)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetricsProm)
	mux.HandleFunc("GET /v1/metrics", g.handleMetricsJSON)
	mux.HandleFunc("GET /v1/flightrec", g.handleFlightRec)
	mux.HandleFunc("GET /v1/watch", g.handleWatch)
	mux.HandleFunc("/", g.handleProxy)
	return mux
}

// selfObserved reports whether a route reads the gateway's own
// instruments; such requests pass unrecorded so two scrapes of an idle
// gateway are byte-identical.
func selfObserved(path string) bool {
	switch path {
	case "/metrics", "/v1/metrics", "/v1/flightrec":
		return true
	}
	return false
}

// middleware counts admitted requests and records each routed request
// into the flight recorder.
func (g *Gateway) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if selfObserved(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		g.requests.Add(1)
		g.requestsC.Inc()
		if g.flightrec == nil {
			next.ServeHTTP(w, r)
			return
		}
		cs := obs.NewCaptureState(r.Method, r.URL.Path, r.Header.Get("X-Request-Id"))
		r = r.WithContext(obs.WithCaptureState(r.Context(), cs))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		begin := g.clock()
		next.ServeHTTP(sw, r)
		durNs := g.clock().Sub(begin).Nanoseconds()
		var anomalies []string
		// A 5xx written after the client hung up reached nobody and
		// reports the hang-up, not a fault: it is recorded, not pinned.
		if sw.code >= http.StatusInternalServerError && r.Context().Err() == nil {
			anomalies = []string{"gateway:5xx"}
		}
		g.flightrec.Record(cs.Finish(sw.code, uint64(durNs), "", false, anomalies))
	})
}

// statusWriter captures the response status for the flight recorder.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Serve accepts connections on ln until ctx is cancelled, then drains
// gracefully for up to DrainTimeout.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           g.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), g.cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		closeErr := hs.Close()
		<-errc
		if closeErr != nil {
			return closeErr
		}
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe listens on Config.Addr and calls Serve.
func (g *Gateway) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", g.cfg.Addr)
	if err != nil {
		return err
	}
	return g.Serve(ctx, ln)
}

// discardHandler is a no-op slog handler for the nil-Logger default.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
