package main

// serve-mix: an in-process bgpsimd server (serve.New, default Config, two
// pool workers) on loopback, driven closed-loop from two connections by a
// seeded stream of /v1/run and /v1/sweep requests over small tori. About
// 82% of requests hit the prefilled store; the rest are fresh misses, some
// sent from both connections at once so the server coalesces them. A pair's
// second request can arrive after the computation ended and be answered as
// a hit, so about 17% of answers are misses. That puts op_ms_p90 near the
// middle of the miss latencies: with 13% it sat in their fastest fifth,
// which overlaps the slowest hits, and moved with the host's speed twice as
// much as the other percentiles. Which way a pair's second request goes
// depends on timing too, so pairs are kept to one step in fifty.
// Both requests of a step are of one kind, so a hit never waits for CPU
// behind a miss computing for the other connection: hit latency is the
// read path's.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/serve"
	"bgpcoll/internal/serve/reqspec"
)

var (
	serveTori  = [][3]int{{2, 2, 2}, {2, 2, 4}, {2, 4, 4}, {4, 4, 4}, {4, 4, 8}}
	serveModes = []string{"quad", "smp"}
	serveSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	// serveAlgos lists, per mode and op, the algorithms a request may name.
	serveAlgos = map[string]map[string][]string{
		"quad": {
			"bcast":     {"tree.shmem", "tree.dmafifo", "tree.dmadirect", "tree.shaddr", "torus.directput", "torus.fifo", "torus.shaddr"},
			"allreduce": {"allreduce.shaddr", "allreduce.current"},
		},
		"smp": {
			"bcast":     {"tree.smp", "torus.directput"},
			"allreduce": {"allreduce.current"},
		},
	}
)

const (
	hitSetSize = 60   // distinct prefilled requests
	pairShare  = 0.02 // steps whose two requests are one fresh miss, sent twice
	missShare  = 0.16 // steps whose two requests are distinct fresh misses
	zipfS      = 1.2  // popularity skew over the hit set
)

// serveReq is one request with the cells it decomposes into, in response
// order.
type serveReq struct {
	path  string
	body  []byte
	cells []bench.Cell
}

// requestGen draws requests from a seeded stream. It remembers every cell
// it has issued, so a miss is always a cell the server has not seen.
type requestGen struct {
	rng  *rand.Rand
	seen map[string]bool
	hits []*serveReq
	zipf *rand.Zipf
}

func newRequestGen(seed int64) (*requestGen, error) {
	g := &requestGen{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
	// The hit set's shape is fixed, so every seed prefills every partition
	// and ranks requests of the same kinds equally popular: entry i runs on
	// partition i%10, is a sweep when i%5 == 4 and an allreduce when
	// i/10%4 == 3. Algorithms and sizes are drawn.
	for i := 0; len(g.hits) < hitSetSize; {
		t, mode := serveTori[i%10/2], serveModes[i%2]
		op := "bcast"
		if i/10%4 == 3 {
			op = "allreduce"
		}
		r, err := g.request(t, mode, op, i%5 == 4, func() string {
			return bench.SizeLabel(serveSizes[g.rng.Intn(len(serveSizes))])
		})
		if err != nil {
			return nil, err
		}
		if r != nil {
			g.hits = append(g.hits, r)
			i++
		}
	}
	g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(g.hits)-1))
	return g, nil
}

// miss draws a request whose every cell is new, on a drawn partition:
// payload sizes are drawn byte-exact from 1 KB to 64 KB, so the key space
// does not run out.
func (g *requestGen) miss() (*serveReq, error) {
	for {
		t, mode := serveTori[g.rng.Intn(len(serveTori))], serveModes[g.rng.Intn(len(serveModes))]
		op := "bcast"
		if g.rng.Intn(4) == 0 {
			op = "allreduce"
		}
		r, err := g.request(t, mode, op, g.rng.Intn(5) == 0, func() string {
			return strconv.Itoa(8 * (128 + g.rng.Intn(8192-128+1)))
		})
		if r != nil || err != nil {
			return r, err
		}
	}
}

func (g *requestGen) hit() *serveReq { return g.hits[g.zipf.Uint64()] }

// request builds one /v1/run request, or for sweep a /v1/sweep over two
// sizes and, where the mode and op offer two, two algorithms. It returns
// nil when a drawn cell was issued before.
func (g *requestGen) request(t [3]int, mode, op string, sweep bool, size func() string) (*serveReq, error) {
	iters := 1 + g.rng.Intn(2)
	torus := fmt.Sprintf("%dx%dx%d", t[0], t[1], t[2])
	pool := serveAlgos[mode][op]
	a := g.rng.Intn(len(pool))
	algos := []string{pool[a]}
	sizes := []string{size()}
	if sweep {
		if len(pool) > 1 {
			algos = append(algos, pool[(a+1+g.rng.Intn(len(pool)-1))%len(pool)])
		}
		sizes = append(sizes, size())
	}
	var cells []bench.Cell
	for _, a := range algos {
		for _, s := range sizes {
			c, err := requestCell(op, a, s, t, mode, iters)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = serve.KeyCell(c)
		for j := 0; j < i; j++ {
			if keys[j] == keys[i] {
				return nil, nil
			}
		}
		if g.seen[keys[i]] {
			return nil, nil
		}
	}
	for _, k := range keys {
		g.seen[k] = true
	}
	var body any
	path := "/v1/run"
	if sweep {
		path = "/v1/sweep"
		body = map[string]any{"op": op, "algos": algos, "sizes": sizes, "torus": torus, "mode": mode, "iters": iters}
	} else {
		body = map[string]any{"op": op, "algo": algos[0], "size": sizes[0], "torus": torus, "mode": mode, "iters": iters}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return &serveReq{path: path, body: b, cells: cells}, nil
}

// requestCell is the cell the server derives from one request entry, built
// here independently so its answer can be computed by a direct Cell.Run.
func requestCell(op, algo, size string, t [3]int, mode string, iters int) (bench.Cell, error) {
	n, err := reqspec.ParseSize(size)
	if err != nil {
		return bench.Cell{}, err
	}
	m, err := reqspec.ParseMode(mode)
	if err != nil {
		return bench.Cell{}, err
	}
	cfg := hw.DefaultConfig()
	cfg.Torus.DX, cfg.Torus.DY, cfg.Torus.DZ = t[0], t[1], t[2]
	cfg.Mode = m
	cfg.Functional = false
	c := bench.Cell{Experiment: "adhoc", Series: algo, Cfg: cfg, Algo: algo, Iters: iters, Kind: bench.CellBcast, Arg: n}
	if op == "allreduce" {
		c.Kind, c.Arg = bench.CellAllreduce, n/8
	}
	return c, nil
}

// step is one closed-loop round: one request per connection, both hits or
// both misses.
type step struct {
	reqs [2]*serveReq
	pair bool // both connections send the same fresh miss
}

func (g *requestGen) step() (step, error) {
	switch r := g.rng.Float64(); {
	case r < pairShare:
		m, err := g.miss()
		return step{reqs: [2]*serveReq{m, m}, pair: true}, err
	case r < pairShare+missShare:
		a, err := g.miss()
		if err != nil {
			return step{}, err
		}
		b, err := g.miss()
		return step{reqs: [2]*serveReq{a, b}}, err
	}
	return step{reqs: [2]*serveReq{g.hit(), g.hit()}}, nil
}

// response is one answered request, checked after the timed phase.
type response struct {
	req    *serveReq
	status int
	cache  string
	body   []byte
}

type serveMix struct {
	gen     *requestGen
	answers map[string]int64 // cell key -> ps from a direct Cell.Run
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	url     string
	clients [2]*http.Client
	tr      atomic.Pointer[tracer]
	sent    []response           // first answer to each request, checked after the phase
	first   map[*serveReq][]byte // body of that first answer
	cfgs    []hw.Config
}

func newServeMix(seed int64) (*serveMix, error) {
	gen, err := newRequestGen(seed)
	if err != nil {
		return nil, err
	}
	w := &serveMix{gen: gen, answers: map[string]int64{}, first: map[*serveReq][]byte{}}
	seenCfg := map[hw.Config]bool{}
	for _, r := range gen.hits {
		for _, c := range r.cells {
			if err := w.answer(c); err != nil {
				return nil, err
			}
			if !seenCfg[c.Cfg] {
				seenCfg[c.Cfg] = true
				w.cfgs = append(w.cfgs, c.Cfg)
			}
		}
	}
	bench.DrainWorldPool()
	return w, nil
}

// answer computes a cell's expected virtual time by a direct Cell.Run.
func (w *serveMix) answer(c bench.Cell) error {
	k := serve.KeyCell(c)
	if _, ok := w.answers[k]; ok {
		return nil
	}
	vt, err := c.Run(bench.RunMode{})
	if err != nil {
		return fmt.Errorf("direct run of %s: %w", serve.CanonicalCell(c), err)
	}
	w.answers[k] = int64(vt)
	return nil
}

func (w *serveMix) setupReps() int { return 15 }

// setup starts a fresh server on an empty store and a drained world pool,
// then prefills the hit set through both connections.
func (w *serveMix) setup() error {
	w.stop()
	bench.DrainWorldPool()
	w.srv = serve.New(serve.NewStore(), serve.Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: http.HandlerFunc(w.serveHTTP)}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.hs.Serve(ln)
	}()
	for i := range w.clients {
		w.clients[i] = &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
	}
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	for i := range w.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := i; j < len(w.gen.hits); j += len(w.clients) {
				res, err := w.do(i, w.gen.hits[j])
				if err == nil && res.status != http.StatusOK {
					err = fmt.Errorf("prefill %s: HTTP %d: %s", w.gen.hits[j].body, res.status, res.body)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serveHTTP is the server's handler, wrapped in a span when tracing.
func (w *serveMix) serveHTTP(rw http.ResponseWriter, r *http.Request) {
	tr := w.tr.Load()
	sp := tr.begin("serve.Server.ServeHTTP", -1, 0)
	w.srv.ServeHTTP(rw, r)
	tr.end(sp)
}

// do sends one request on connection i and reads the whole response.
func (w *serveMix) do(i int, r *serveReq) (response, error) {
	resp, err := w.clients[i].Post(w.url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{req: r, status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body}, nil
}

func (w *serveMix) measure(p *phase) error {
	m, tr := p.m, p.tr
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	before, err := w.scrape()
	if err != nil {
		return err
	}
	dupCells := 0
	for !p.over() {
		st, err := w.gen.step()
		if err != nil {
			return err
		}
		if st.pair {
			dupCells += len(st.reqs[1].cells)
		}
		m.win = p.window()
		var res [2]response
		var errs [2]error
		var took [2]time.Duration
		c0 := cpuTime()
		var wg sync.WaitGroup
		for i, r := range st.reqs {
			wg.Add(1)
			go func(i int, r *serveReq) {
				defer wg.Done()
				sp := tr.begin("http.Client.Post "+r.path, -1, int32(i))
				t0 := time.Now()
				res[i], errs[i] = w.do(i, r)
				took[i] = time.Since(t0)
				tr.end(sp)
			}(i, r)
		}
		wg.Wait()
		m.spent(cpuTime() - c0)
		for i := range res {
			m.attempted++
			switch {
			case errs[i] != nil:
				m.fail("%s %s: %v", st.reqs[i].path, st.reqs[i].body, errs[i])
			case res[i].status != http.StatusOK:
				m.fail("%s %s: HTTP %d: %s", st.reqs[i].path, st.reqs[i].body, res[i].status, res[i].body)
			default:
				m.sample(took[i], res[i].cache == "hit")
				w.record(m, res[i])
			}
		}
	}
	after, err := w.scrape()
	if err != nil {
		return err
	}
	for _, k := range []string{"hits", "misses", "coalesced", "rejected"} {
		m.layer["serve."+k] = after[k] - before[k]
	}
	if cells := m.layer["serve.hits"] + m.layer["serve.misses"] + m.layer["serve.coalesced"]; cells > 0 {
		m.layer["serve.hit_ratio"] = m.layer["serve.hits"] / cells
	}
	if dupCells > 0 {
		m.layer["serve.coalesce_ratio"] = m.layer["serve.coalesced"] / float64(dupCells)
	}
	return nil
}

// record keeps the first answer to each request for check and compares
// every later answer to it byte for byte: the server renders a stored
// answer byte-identical to the computed one.
func (w *serveMix) record(m *measurement, res response) {
	if first, ok := w.first[res.req]; ok {
		if !bytes.Equal(first, res.body) {
			m.fail("%s %s: answer %s differs from the first answer %s", res.req.path, res.req.body, res.body, first)
		}
		return
	}
	w.first[res.req] = res.body
	w.sent = append(w.sent, res)
}

// scrape reads the cache counters from /metrics.
func (w *serveMix) scrape() (map[string]float64, error) {
	resp, err := w.clients[0].Get(w.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	names := map[string]string{
		"bgpsimd_cache_hits_total":      "hits",
		"bgpsimd_cache_misses_total":    "misses",
		"bgpsimd_cache_coalesced_total": "coalesced",
		"bgpsimd_rejected_total":        "rejected",
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if k, known := names[name]; ok && known {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics %q: %v", line, err)
			}
			out[k] = v
		}
	}
	if len(out) != len(names) {
		return nil, fmt.Errorf("/metrics lacks cache counters: %s", body)
	}
	return out, nil
}

// cellResult is the wire form of one answered cell.
type cellResult struct {
	Series string `json:"series"`
	Bytes  int    `json:"bytes"`
	PS     int64  `json:"ps"`
}

// check compares the first answer to each request with direct Cell.Run
// answers.
func (w *serveMix) check(m *measurement) error {
	for _, res := range w.sent {
		var got []cellResult
		var err error
		if res.req.path == "/v1/sweep" {
			var body struct {
				Cells []cellResult `json:"cells"`
			}
			err = json.Unmarshal(res.body, &body)
			got = body.Cells
		} else {
			got = make([]cellResult, 1)
			err = json.Unmarshal(res.body, &got[0])
		}
		if err == nil && len(got) != len(res.req.cells) {
			err = fmt.Errorf("%d cells in the answer, %d asked", len(got), len(res.req.cells))
		}
		for i := 0; err == nil && i < len(got); i++ {
			c := res.req.cells[i]
			if err = w.answer(c); err != nil {
				break
			}
			want := cellResult{Series: c.Series, Bytes: c.Bytes(), PS: w.answers[serve.KeyCell(c)]}
			if got[i] != want {
				err = fmt.Errorf("cell %d is %+v, expected %+v", i, got[i], want)
			}
		}
		if err != nil {
			m.fail("%s %s: %v", res.req.path, res.req.body, err)
		}
	}
	w.sent = w.sent[:0]
	return nil
}

// layers adds the key and handler microbenchmarks and the world-build cost
// of the hit set's partitions.
func (w *serveMix) layers(m *measurement) error {
	var cells []bench.Cell
	for _, r := range w.gen.hits {
		cells = append(cells, r.cells...)
	}
	m.layer["serve.key_us"] = microbench(len(cells), func(i int) { serve.KeyCell(cells[i]) })

	hot := w.gen.hits[0]
	var bad atomic.Int64
	m.layer["serve.handler_hit_us"] = microbench(200, func(int) {
		rec := httptest.NewRecorder()
		w.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, hot.path, bytes.NewReader(hot.body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			bad.Add(1)
		}
	})
	if bad.Load() > 0 {
		return fmt.Errorf("in-memory handler: %d hit requests not answered from the store", bad.Load())
	}
	return buildCost(w.cfgs, m)
}

// microbench calls fn(0..n-1) in five batches and returns the median
// per-call time in microseconds.
func microbench(n int, fn func(i int)) float64 {
	per := make([]float64, 5)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	}
	return median(per)
}

// stop shuts the server down and waits for its goroutines.
func (w *serveMix) stop() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	<-w.served
	w.srv.Close()
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.hs = nil
}

func (w *serveMix) close() {
	w.stop()
	bench.DrainWorldPool()
}
