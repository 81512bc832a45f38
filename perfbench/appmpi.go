package main

// app-mpi: bgpcoll.Jobs on DefaultConfig (128 quad ranks, real data
// buffers) running a seeded blocking-style program through the facade.
// The program is a sequence of phases; a phase issues one collective three
// times on the same buffers, as an application's iteration loop would, and
// every payload is checked against a reference computed here. Each phase
// runs on its own job: a job's kernel keeps every event it allocated until
// the world is reset, so one long-lived job grows by megabytes per
// collective, and a fresh job also makes each phase's virtual times
// independent of the phases before it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"bgpcoll"
)

// mpiOps are the collectives of the program (metric names mpi.coll_ms.<op>).
var mpiOps = []string{
	"bcast", "allreduce", "barrier", "gather", "allgather",
	"reduce", "scatter", "alltoall", "sendrecv",
}

var (
	mpiSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	mpiRoots = []int{0, 77} // a node master and a non-master rank
)

// mpiReps is how often a phase repeats its collective: the first call runs
// on fresh buffers (a miss), the repeats reuse them (hits).
const mpiReps = 3

const sendrecvTag = 7

// mpiPhase is one collective with its payload size (bytes per rank, or the
// gathered total for gather, allgather and scatter) and root.
type mpiPhase struct {
	op         string
	size, root int
}

func (ph mpiPhase) rooted() bool {
	switch ph.op {
	case "bcast", "gather", "reduce", "scatter":
		return true
	}
	return false
}

func (ph mpiPhase) key() string { return fmt.Sprintf("%s/%d/%d", ph.op, ph.size, ph.root) }

// genPass draws one pass of the program: every collective once, in a
// seeded order, each with a seeded payload size and root. A pass is the
// unit the timed phase completes, so every run issues the collectives in
// the same proportions.
func genPass(rng *rand.Rand) []mpiPhase {
	pass := make([]mpiPhase, len(mpiOps))
	for i, j := range rng.Perm(len(mpiOps)) {
		ph := mpiPhase{op: mpiOps[j]}
		if ph.op != "barrier" {
			ph.size = mpiSizes[rng.Intn(len(mpiSizes))]
		}
		if ph.rooted() {
			ph.root = mpiRoots[rng.Intn(len(mpiRoots))]
		}
		pass[i] = ph
	}
	return pass
}

// allPhases lists every phase genPass can draw.
func allPhases() []mpiPhase {
	out := []mpiPhase{{op: "barrier"}}
	for _, op := range mpiOps {
		if op == "barrier" {
			continue
		}
		for _, size := range mpiSizes {
			ph := mpiPhase{op: op, size: size}
			if !ph.rooted() {
				out = append(out, ph)
				continue
			}
			for _, root := range mpiRoots {
				ph.root = root
				out = append(out, ph)
			}
		}
	}
	return out
}

// mpiBuffers are one phase's per-rank buffers, carved from two slabs that
// outlive the phase; data.Real gives each phase fresh buffer identities.
type mpiBuffers struct {
	send, recv []bgpcoll.Buf
	recvSlab   []byte
}

type appMPI struct {
	rng      *rand.Rand
	cfg      bgpcoll.Config
	job      *bgpcoll.Job
	slabs    [2][]byte
	phaseNum uint64
	model    modelReading
}

func newAppMPI(seed int64) (*appMPI, error) {
	cfg := bgpcoll.DefaultConfig()
	n := cfg.Ranks()
	max := mpiSizes[len(mpiSizes)-1]
	return &appMPI{
		rng:   rand.New(rand.NewSource(seed)),
		cfg:   cfg,
		slabs: [2][]byte{make([]byte, n*max), make([]byte, n*max)},
	}, nil
}

func (w *appMPI) setupReps() int { return 1001 }

func (w *appMPI) setup() error {
	job, err := bgpcoll.NewJob(w.cfg)
	if err != nil {
		return err
	}
	w.job = job
	return nil
}

// measure runs whole passes. Each phase gets a fresh job, so a phase's
// virtual times do not depend on what ran before it; the job from setup
// serves the first phase. A pass belongs to the window it starts in, so
// every window issues the collectives in the same proportions.
func (w *appMPI) measure(p *phase) error {
	perOp := map[string][]float64{}
	for !p.over() {
		p.m.win = p.window()
		for _, ph := range genPass(w.rng) {
			if w.job == nil {
				if err := w.setup(); err != nil {
					return err
				}
			}
			err := w.runPhase(ph, p.tr, p.m, func(rep int, vt bgpcoll.Time, d time.Duration) {
				perOp[ph.op] = append(perOp[ph.op], float64(d.Nanoseconds())/1e6)
				want := expected.AppMPIOps[ph.key()]
				if len(want) != mpiReps || int64(vt) != want[rep] {
					p.m.fail("%s rep %d: virtual time %d ps, expected %v", ph.key(), rep, vt, want)
					return
				}
				p.m.op(d, rep > 0)
			})
			w.job = nil
			if err != nil {
				return err
			}
		}
	}
	for _, op := range mpiOps {
		if xs := perOp[op]; len(xs) > 0 {
			p.m.layer["mpi.coll_ms."+op] = median(xs)
		}
	}
	return nil
}

// runPhase issues ph mpiReps times on one set of buffers. Each call is one
// Job.Run in which every rank makes the collective call; done receives the
// repetition's virtual time and CPU time. Payload errors count as failed
// operations; a failed Run ends the phase, and the caller discards the job.
func (w *appMPI) runPhase(ph mpiPhase, tr *tracer, m *measurement, done func(rep int, vt bgpcoll.Time, d time.Duration)) error {
	w.phaseNum++
	b := w.buffers(ph)
	name := "Rank." + rankMethod[ph.op]
	for rep := 0; rep < mpiReps; rep++ {
		tag := w.phaseNum<<8 | uint64(rep)
		w.fill(ph, b, tag)
		m.attempted++
		v0 := w.job.World.M.K.Now()
		run := tr.begin("bgpcoll.Job.Run", -1, 0)
		c0 := cpuTime()
		vt, err := w.job.Run(func(r *bgpcoll.Rank) {
			sp := tr.begin(name, run, int32(r.Rank()))
			call(ph, r, b)
			tr.end(sp)
		})
		d := cpuTime() - c0
		tr.end(run)
		if err != nil {
			m.fail("%s rep %d: %v", ph.key(), rep, err)
			return nil
		}
		if bad := checkPayload(ph, b, tag); bad != "" {
			m.fail("%s rep %d: %s", ph.key(), rep, bad)
			continue
		}
		done(rep, vt-v0, d)
	}
	return nil
}

var rankMethod = map[string]string{
	"bcast": "Bcast", "allreduce": "AllreduceSum", "barrier": "Barrier",
	"gather": "Gather", "allgather": "Allgather", "reduce": "ReduceSum",
	"scatter": "Scatter", "alltoall": "Alltoall", "sendrecv": "Sendrecv",
}

// call makes rank r's facade call for ph.
func call(ph mpiPhase, r *bgpcoll.Rank, b *mpiBuffers) {
	id, n := r.Rank(), r.Size()
	s, v := b.send[id], b.recv[id]
	switch ph.op {
	case "bcast":
		r.Bcast(s, ph.root)
	case "allreduce":
		r.AllreduceSum(s, v)
	case "barrier":
		r.Barrier()
	case "gather":
		r.Gather(s, v, ph.root)
	case "allgather":
		r.Allgather(s, v)
	case "reduce":
		r.ReduceSum(s, v, ph.root)
	case "scatter":
		r.Scatter(s, v, ph.root)
	case "alltoall":
		r.Alltoall(s, v)
	case "sendrecv":
		r.Sendrecv((id+1)%n, s, sendrecvTag, (id+n-1)%n, v, sendrecvTag)
	}
}

// lens returns rank id's send and receive lengths for ph.
func (w *appMPI) lens(ph mpiPhase, id int) (send, recv int) {
	n := w.cfg.Ranks()
	block := ph.size / n
	isRoot := id == ph.root
	switch ph.op {
	case "bcast":
		return ph.size, 0
	case "allreduce", "alltoall", "sendrecv":
		return ph.size, ph.size
	case "gather":
		if isRoot {
			return block, ph.size
		}
		return block, 0
	case "allgather":
		return block, ph.size
	case "reduce":
		if isRoot {
			return ph.size, ph.size
		}
		return ph.size, 0
	case "scatter":
		if isRoot {
			return ph.size, block
		}
		return 0, block
	}
	return 0, 0
}

// buffers carves fresh per-rank buffers for ph out of the slabs.
func (w *appMPI) buffers(ph mpiPhase) *mpiBuffers {
	n := w.cfg.Ranks()
	b := &mpiBuffers{send: make([]bgpcoll.Buf, n), recv: make([]bgpcoll.Buf, n)}
	so, ro := 0, 0
	for id := 0; id < n; id++ {
		sl, rl := w.lens(ph, id)
		b.send[id] = bgpcoll.NewReal(w.slabs[0][so : so+sl])
		b.recv[id] = bgpcoll.NewReal(w.slabs[1][ro : ro+rl])
		so, ro = so+sl, ro+rl
	}
	b.recvSlab = w.slabs[1][:ro]
	return b
}

// floatOp reports whether ph's payload is float64 sums.
func floatOp(op string) bool { return op == "allreduce" || op == "reduce" }

// word is the deterministic payload word i of rank id's send buffer.
func word(tag uint64, id, i int) uint64 {
	x := tag*0x9e3779b97f4a7c15 ^ uint64(id)<<32 ^ uint64(i)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>29
}

// floatWord is the float64 value at element i of rank id's send buffer:
// small integers, so sums are exact in any order.
func floatWord(tag uint64, id, i int) float64 { return float64(word(tag, id, i) % 13) }

// fill writes each rank's send pattern for this repetition and clears the
// receive side, so a stale payload cannot pass the check.
func (w *appMPI) fill(ph mpiPhase, b *mpiBuffers, tag uint64) {
	for id, s := range b.send {
		raw := s.Bytes()
		for i := 0; i+8 <= len(raw); i += 8 {
			var v uint64
			if floatOp(ph.op) {
				v = math.Float64bits(floatWord(tag, id, i/8))
			} else {
				v = word(tag, id, i/8)
			}
			binary.LittleEndian.PutUint64(raw[i:], v)
		}
	}
	clear(b.recvSlab)
	if ph.op == "bcast" {
		for id, s := range b.send {
			if id != ph.root {
				clear(s.Bytes())
			}
		}
	}
}

// checkPayload verifies what every rank holds after the collective and
// describes the first wrong buffer, or returns "".
func checkPayload(ph mpiPhase, b *mpiBuffers, tag uint64) string {
	n := len(b.send)
	block := ph.size / n
	bad := func(id int, what string) string { return fmt.Sprintf("rank %d: wrong %s", id, what) }
	switch ph.op {
	case "bcast":
		for id, s := range b.send {
			if !bytes.Equal(s.Bytes(), b.send[ph.root].Bytes()) {
				return bad(id, "broadcast payload")
			}
		}
		// The root's own buffer must still hold the pattern it sent.
		for i := 0; i+8 <= ph.size; i += 8 {
			if binary.LittleEndian.Uint64(b.send[ph.root].Bytes()[i:]) != word(tag, ph.root, i/8) {
				return bad(ph.root, "root buffer")
			}
		}
	case "allreduce", "reduce":
		want := make([]byte, ph.size)
		for i := 0; i < ph.size/8; i++ {
			s := 0.0
			for id := 0; id < n; id++ {
				s += floatWord(tag, id, i)
			}
			binary.LittleEndian.PutUint64(want[i*8:], math.Float64bits(s))
		}
		for id, v := range b.recv {
			if (ph.op == "allreduce" || id == ph.root) && !bytes.Equal(v.Bytes(), want) {
				return bad(id, "sum")
			}
		}
	case "gather", "allgather":
		for id, v := range b.recv {
			if ph.op == "gather" && id != ph.root {
				continue
			}
			for j := 0; j < n; j++ {
				if !bytes.Equal(v.Bytes()[j*block:(j+1)*block], b.send[j].Bytes()) {
					return bad(id, fmt.Sprintf("block %d", j))
				}
			}
		}
	case "scatter":
		root := b.send[ph.root].Bytes()
		for id, v := range b.recv {
			if !bytes.Equal(v.Bytes(), root[id*block:(id+1)*block]) {
				return bad(id, "scattered block")
			}
		}
	case "alltoall":
		for id, v := range b.recv {
			for j := 0; j < n; j++ {
				if !bytes.Equal(v.Bytes()[j*block:(j+1)*block], b.send[j].Bytes()[id*block:(id+1)*block]) {
					return bad(id, fmt.Sprintf("block from rank %d", j))
				}
			}
		}
	case "sendrecv":
		for id, v := range b.recv {
			if !bytes.Equal(v.Bytes(), b.send[(id+n-1)%n].Bytes()) {
				return bad(id, "halo")
			}
		}
	}
	return ""
}

// modelReading is the simulated-resource account of the fixed reference
// program: deterministic, so any difference is a changed answer.
type modelReading struct {
	MakespanPS  int64   `json:"makespan_ps"`
	TorusBytes  int64   `json:"torus_bytes"`
	DMAUtil     float64 `json:"dma_util"`
	TreeUtil    float64 `json:"tree_util"`
	BusBytes    int64   `json:"bus_bytes"`
	CNKSyscalls int64   `json:"cnk_syscalls"`
}

// modelPhases is the reference program: every collective once, at 16 KB,
// rooted at the non-master rank where it takes a root.
func modelPhases() []mpiPhase {
	out := make([]mpiPhase, len(mpiOps))
	for i, op := range mpiOps {
		out[i] = mpiPhase{op: op, size: 16 << 10}
		if op == "barrier" {
			out[i].size = 0
		}
		if out[i].rooted() {
			out[i].root = mpiRoots[1]
		}
	}
	return out
}

// runModelProgram runs the reference program on a fresh job and reads the
// machine report and the CNK system-call counts.
func runModelProgram() (modelReading, error) {
	w, err := newAppMPI(0)
	if err != nil {
		return modelReading{}, err
	}
	if err := w.setup(); err != nil {
		return modelReading{}, err
	}
	m := newMeasurement()
	for _, ph := range modelPhases() {
		if err := w.runPhase(ph, nil, m, func(int, bgpcoll.Time, time.Duration) {}); err != nil {
			return modelReading{}, err
		}
	}
	if m.failed > 0 {
		return modelReading{}, fmt.Errorf("reference program: %s", m.failures[0])
	}
	world := w.job.World
	span := world.M.K.Now()
	rep := world.M.Report(span)
	out := modelReading{
		MakespanPS: int64(span),
		TorusBytes: rep.TorusBytes,
		DMAUtil:    rep.DMAUtil,
		TreeUtil:   rep.TreeUtil,
		BusBytes:   rep.BusBytes,
	}
	for id := 0; id < world.Size(); id++ {
		out.CNKSyscalls += world.Rank(id).CNK().Syscalls
	}
	return out, nil
}

// check reruns the reference program and compares its model reading with
// the recorded one.
func (w *appMPI) check(m *measurement) error {
	got, err := runModelProgram()
	m.attempted++
	if err != nil {
		m.fail("reference program: %v", err)
		return nil
	}
	if got != expected.AppMPIModel {
		m.fail("reference program model reading %+v, expected %+v", got, expected.AppMPIModel)
	}
	w.model = got
	return nil
}

func (w *appMPI) layers(m *measurement) error {
	m.layer["model.vtime_ps"] = float64(w.model.MakespanPS)
	m.layer["model.torus_mb"] = float64(w.model.TorusBytes) / (1 << 20)
	m.layer["model.dma_util"] = w.model.DMAUtil
	m.layer["model.tree_util"] = w.model.TreeUtil
	m.layer["model.bus_mb"] = float64(w.model.BusBytes) / (1 << 20)
	m.layer["model.cnk_syscalls"] = float64(w.model.CNKSyscalls)
	return buildCost([]bgpcoll.Config{w.cfg}, m)
}

func (w *appMPI) close() {}

// recordAppMPIOps runs every phase the generator can draw, each on a fresh
// job.
func recordAppMPIOps() (map[string][]int64, error) {
	out := map[string][]int64{}
	for _, ph := range allPhases() {
		w, err := newAppMPI(0)
		if err != nil {
			return nil, err
		}
		if err := w.setup(); err != nil {
			return nil, err
		}
		m := newMeasurement()
		var vts []int64
		err = w.runPhase(ph, nil, m, func(_ int, vt bgpcoll.Time, _ time.Duration) {
			vts = append(vts, int64(vt))
		})
		if err == nil && m.failed > 0 {
			err = fmt.Errorf("%s", m.failures[0])
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ph.key(), err)
		}
		out[ph.key()] = vts
	}
	return out, nil
}
