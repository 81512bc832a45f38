// HTTP surface of bgpsimd. Three request shapes, one cache: a single run
// (POST /v1/run), a sweep grid (POST /v1/sweep), and a whole named figure
// (GET /v1/figure) all decompose into cells before touching the pool, so a
// figure request warms the cache for the ad-hoc requests inside it and vice
// versa. Response bodies are rebuilt from cached picosecond entries through
// pure conversions and deterministic JSON marshaling (struct fields only, no
// maps), so a warm response is byte-identical to the cold one; cache status
// travels in the X-Cache header (hit / partial / miss), never in the body.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/serve/reqspec"
	"bgpcoll/internal/sim"
)

// Config sizes a server.
type Config struct {
	Workers   int  // pool workers (0 = 1)
	QueueCap  int  // max cells waiting for a worker (0 = 64)
	ClientCap int  // max outstanding cells per client (0 = QueueCap)
	Reference bool // run kernels in the reference vehicle (bit-identical times)

	// RunCell overrides cell execution; tests inject counters or blockers
	// here. nil = Cell.Run under the vehicle chosen by Reference.
	RunCell func(bench.Cell) (sim.Time, error)
}

// Server is the bgpsimd HTTP handler set plus its store, pool, and metrics.
type Server struct {
	store   *Store
	metrics *Metrics
	pool    *Pool
	mux     *http.ServeMux
}

// New builds a server around store (which may be pre-loaded from a cache
// file). Close must be called to join the worker pool.
func New(store *Store, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.ClientCap <= 0 {
		cfg.ClientCap = cfg.QueueCap
	}
	run := cfg.RunCell
	if run == nil {
		mode := bench.RunMode{Reference: cfg.Reference}
		run = func(c bench.Cell) (sim.Time, error) { return c.Run(mode) }
	}
	s := &Server{store: store, metrics: NewMetrics()}
	// Feed the fingerprint-latency histogram from the bench extrapolator.
	// The observer is process-wide; the newest server wins, which is the
	// running one everywhere outside multi-server tests.
	bench.SetFingerprintObserver(func(d time.Duration) {
		s.metrics.ObserveFingerprint(float64(d.Nanoseconds()) / 1e6)
	})
	s.pool = NewPool(store, s.metrics, cfg.Workers, cfg.QueueCap, cfg.ClientCap, run)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/figure", s.handleFigure)
	return s
}

// ServeHTTP dispatches to the endpoint handlers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the instrumentation (for the main package's final stats).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close joins the worker pool. Call after the HTTP listener has stopped.
func (s *Server) Close() { s.pool.Close() }

// client extracts the fairness identity: the peer host, so one misbehaving
// host cannot starve others however many connections it opens.
func client(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, s.store)
}

// httpError writes a JSON error body with the given status.
// maxRequestBody caps a POST body. The largest legitimate request, a sweep
// over every algorithm and size, is a few kilobytes; anything near the cap
// is abuse, and reading it unbounded would let one client exhaust memory.
const maxRequestBody = 64 << 10

// decodeBody reads r's body, at most maxRequestBody bytes, and decodes it as
// JSON into v. On failure it has already answered: 413 for an oversized
// body (whatever its content), 400 for a malformed one.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxRequestBody)
		return false
	}
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// submit runs cells through the pool and writes obj as the JSON response
// body with the X-Cache verdict, mapping ErrBusy to 429.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, cells []bench.Cell, body func(entries []Entry) any) {
	entries, hits, err := s.pool.Submit(client(r), cells)
	if errors.Is(err, ErrBusy) {
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	verdict := "miss"
	switch {
	case hits == len(cells):
		verdict = "hit"
	case hits > 0:
		verdict = "partial"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", verdict)
	data, err := json.Marshal(body(entries))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Write(append(data, '\n'))
}

// runRequest is the /v1/run body: the bgpsim CLI's flags as JSON, parsed by
// the same reqspec grammar. For allreduce the size is still bytes; the
// operand length is size/8 doubles.
type runRequest struct {
	Op    string `json:"op"`    // "bcast" (default) or "allreduce"
	Algo  string `json:"algo"`  // required; see reqspec listings
	Size  string `json:"size"`  // "64K", "2M", ... (default "1M")
	Torus string `json:"torus"` // "DXxDYxDZ" (default "8x8x8")
	Mode  string `json:"mode"`  // smp/dual/quad (default "quad")
	Iters int    `json:"iters"` // micro-benchmark repetitions (default 1)
}

// cellResult is one measurement in a response body.
type cellResult struct {
	Series string  `json:"series"`
	Bytes  int     `json:"bytes"`
	PS     int64   `json:"ps"`
	US     float64 `json:"us"`
}

func resultOf(c bench.Cell, e Entry) cellResult {
	return cellResult{Series: c.Series, Bytes: c.Bytes(), PS: e.PS, US: sim.Time(e.PS).Microseconds()}
}

// buildCell validates one runRequest into a Cell.
func buildCell(q runRequest) (bench.Cell, error) {
	if q.Op == "" {
		q.Op = "bcast"
	}
	if q.Size == "" {
		q.Size = "1M"
	}
	if q.Torus == "" {
		q.Torus = "8x8x8"
	}
	if q.Mode == "" {
		q.Mode = "quad"
	}
	if q.Iters <= 0 {
		q.Iters = 1
	}
	size, err := reqspec.ParseSize(q.Size)
	if err != nil {
		return bench.Cell{}, err
	}
	dx, dy, dz, err := reqspec.ParseTorus(q.Torus)
	if err != nil {
		return bench.Cell{}, err
	}
	mode, err := reqspec.ParseMode(q.Mode)
	if err != nil {
		return bench.Cell{}, err
	}
	cfg := hw.DefaultConfig()
	cfg.Torus.DX, cfg.Torus.DY, cfg.Torus.DZ = dx, dy, dz
	cfg.Mode = mode
	cfg.Functional = false
	if err := cfg.Validate(); err != nil {
		return bench.Cell{}, err
	}
	c := bench.Cell{Experiment: "adhoc", Series: q.Algo, Cfg: cfg, Algo: q.Algo, Iters: q.Iters}
	switch q.Op {
	case "bcast":
		if !reqspec.ValidBcastAlgo(q.Algo) {
			return bench.Cell{}, fmt.Errorf("unknown bcast algorithm %q (have %v)", q.Algo, reqspec.BcastAlgorithms())
		}
		c.Kind, c.Arg = bench.CellBcast, size
	case "allreduce":
		if !reqspec.ValidAllreduceAlgo(q.Algo) {
			return bench.Cell{}, fmt.Errorf("unknown allreduce algorithm %q (have %v)", q.Algo, reqspec.AllreduceAlgorithms())
		}
		c.Kind, c.Arg = bench.CellAllreduce, size/8
		if c.Arg <= 0 {
			return bench.Cell{}, fmt.Errorf("allreduce size %d is under one double", size)
		}
	default:
		return bench.Cell{}, fmt.Errorf("unknown op %q (bcast or allreduce)", q.Op)
	}
	return c, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var q runRequest
	if !decodeBody(w, r, &q) {
		return
	}
	c, err := buildCell(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.respond(w, r, []bench.Cell{c}, func(entries []Entry) any {
		return resultOf(c, entries[0])
	})
}

// sweepRequest is the /v1/sweep body: a grid of algorithms x sizes over one
// partition, decomposed into one cell each.
type sweepRequest struct {
	Op    string   `json:"op"`
	Algos []string `json:"algos"`
	Sizes []string `json:"sizes"`
	Torus string   `json:"torus"`
	Mode  string   `json:"mode"`
	Iters int      `json:"iters"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var q sweepRequest
	if !decodeBody(w, r, &q) {
		return
	}
	if len(q.Algos) == 0 || len(q.Sizes) == 0 {
		httpError(w, http.StatusBadRequest, "sweep needs algos and sizes")
		return
	}
	cells := make([]bench.Cell, 0, len(q.Algos)*len(q.Sizes))
	for _, algo := range q.Algos {
		for _, size := range q.Sizes {
			c, err := buildCell(runRequest{Op: q.Op, Algo: algo, Size: size, Torus: q.Torus, Mode: q.Mode, Iters: q.Iters})
			if err != nil {
				httpError(w, http.StatusBadRequest, "%v", err)
				return
			}
			cells = append(cells, c)
		}
	}
	s.respond(w, r, cells, func(entries []Entry) any {
		out := struct {
			Cells []cellResult `json:"cells"`
		}{Cells: make([]cellResult, len(cells))}
		for i := range cells {
			out.Cells[i] = resultOf(cells[i], entries[i])
		}
		return out
	})
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	id := q.Get("id")
	o := bench.Options{Quick: q.Get("quick") == "1" || q.Get("quick") == "true"}
	if v := q.Get("iters"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &o.Iters); err != nil || o.Iters <= 0 {
			httpError(w, http.StatusBadRequest, "bad iters %q", v)
			return
		}
	}
	if v := q.Get("iters_scale"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &o.ItersScale); err != nil || o.ItersScale <= 0 {
			httpError(w, http.StatusBadRequest, "bad iters_scale %q", v)
			return
		}
	}
	if v := q.Get("racks"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &o.Racks); err != nil || o.Racks <= 0 {
			httpError(w, http.StatusBadRequest, "bad racks %q", v)
			return
		}
	}
	plan, err := bench.PlanExperiment(id, o)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.respond(w, r, plan.Cells, func(entries []Entry) any {
		times := make([]sim.Time, len(entries))
		for i, e := range entries {
			times[i] = sim.Time(e.PS)
		}
		return plan.Assemble(times)
	})
}
