package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The stress tests generate a randomized pipeline workload from a seed and
// run it under every scheduling mode the kernel supports:
//
//   - direct handoff + fused plans + inline programs (the production
//     configuration)
//   - noHandoff: every yield through the kernel goroutine (two rendezvous)
//   - noFuse: plan-attached waits run through the ordinary primitives
//   - noProgram: SpawnProgram bodies run on goroutine-backed processes
//   - every combination of the three reference modes
//
// The modes are pure transport/fusion/execution changes; the (time, seq)
// event order must be bit-identical, so the recorded traces must match
// exactly.

type stressRec struct {
	proc  int
	round int
	at    Time
}

// stressMode names one kernel scheduling configuration.
type stressMode struct {
	name      string
	noHandoff bool
	noFuse    bool
	noProgram bool
	noExtrap  bool
}

// stressModes is the full {handoff, fuse, program, extrap} matrix; the
// production configuration comes first and is the comparison base. In the
// extrap modes a live Steady detector fingerprints the kernel every round
// (the workload is aperiodic, so it never matches): the matrix pins that
// fingerprint captures are observably side-effect-free, since the noextrap
// modes run without any detector and every trace must stay bit-identical.
var stressModes = func() []stressMode {
	var ms []stressMode
	for _, noExtrap := range []bool{false, true} {
		for _, noProgram := range []bool{false, true} {
			for _, noFuse := range []bool{false, true} {
				for _, noHandoff := range []bool{false, true} {
					name := "handoff"
					if noHandoff {
						name = "kernel-mediated"
					}
					if noFuse {
						name += "+unfused"
					} else {
						name += "+fuse"
					}
					if noProgram {
						name += "+goroutine-programs"
					} else {
						name += "+program"
					}
					if noExtrap {
						name += "+noextrap"
					} else {
						name += "+extrap"
					}
					ms = append(ms, stressMode{name: name, noHandoff: noHandoff, noFuse: noFuse, noProgram: noProgram, noExtrap: noExtrap})
				}
			}
		}
	}
	return ms
}()

// stressWorkload builds a deterministic random pipeline: proc 0 produces one
// token per round (with random sleeps and pipe transfers in between), and
// each later proc waits for its predecessor's token — randomly via a counter
// threshold or a per-round event, randomly with a fused plan of random steps
// or via the plain primitives — then performs its own random body and signals
// its successor. Every random choice is drawn up-front from the seeded
// source, so all modes execute the same program.
func stressTrace(t *testing.T, seed int64, mode stressMode) []stressRec {
	t.Helper()
	return stressTraceOn(t, seed, mode, New())
}

// stressTraceOn runs the stress workload on a caller-supplied kernel, so the
// reset tests can replay the identical program on a reused kernel.
func stressTraceOn(t *testing.T, seed int64, mode stressMode, k *Kernel) []stressRec {
	t.Helper()
	const (
		procs  = 12
		rounds = 20
	)
	rng := rand.New(rand.NewSource(seed))
	k.noHandoff, k.noFuse, k.noProgram, k.noExtrap = mode.noHandoff, mode.noFuse, mode.noProgram, mode.noExtrap
	// In extrap modes, fingerprint the kernel at every round boundary of
	// proc 0. The aperiodic workload never matches, so nothing is ever
	// extrapolated; the capture itself must leave no observable trace.
	var det *Steady
	if !mode.noExtrap {
		det = NewSteady(k, nil)
	}

	pipes := []*Pipe{
		k.NewPipe("busA", 2e9, 10*Nanosecond),
		k.NewPipe("busB", 6.8e9, 0),
	}
	scratch := k.NewCounter("scratch")
	tokens := make([]*Counter, procs)
	evs := make([][]*Event, procs)
	for i := range tokens {
		tokens[i] = k.NewCounter(fmt.Sprintf("tok%d", i))
		evs[i] = make([]*Event, rounds)
		for r := range evs[i] {
			evs[i][r] = k.NewEvent(fmt.Sprintf("ev%d.%d", i, r))
		}
	}

	// Per-(proc, round) program, generated before any proc runs.
	type roundProg struct {
		useEvent  bool // wait on evs[i][r] instead of tokens[i-1] >= r+1
		usePlan   bool // attach the steps as a fused plan
		signalEv  bool // successor waits on an event this round
		steps     []planStep
		bodySleep Time
		bodyPipe  int // -1: no transfer
		bodyBytes int
	}
	prog := make([][]roundProg, procs)
	for i := 0; i < procs; i++ {
		prog[i] = make([]roundProg, rounds)
		for r := 0; r < rounds; r++ {
			p := &prog[i][r]
			p.useEvent = rng.Intn(3) == 0
			p.usePlan = rng.Intn(2) == 0
			nsteps := rng.Intn(4)
			for s := 0; s < nsteps; s++ {
				switch rng.Intn(3) {
				case 0:
					p.steps = append(p.steps, planStep{kind: stepSleep, d: Time(rng.Intn(50)) * Nanosecond})
				case 1:
					p.steps = append(p.steps, planStep{
						kind: stepBusy, pipe: pipes[rng.Intn(len(pipes))],
						bytes: 256 + rng.Intn(8192), d: Time(rng.Intn(30)) * Nanosecond,
					})
				case 2:
					// A fused Add to a side counter: exercises stepAdd (and
					// its waiter release path) without perturbing the token
					// protocol.
					p.steps = append(p.steps, planStep{kind: stepAdd, c: scratch, n: 1})
				}
			}
			p.bodySleep = Time(rng.Intn(40)) * Nanosecond
			p.bodyPipe = rng.Intn(len(pipes)+1) - 1
			p.bodyBytes = 512 + rng.Intn(4096)
		}
	}
	// A proc's wait mode must agree with its predecessor's signal mode.
	for i := 1; i < procs; i++ {
		for r := 0; r < rounds; r++ {
			prog[i-1][r].signalEv = prog[i][r].useEvent
		}
	}
	// A seeded subset of procs runs as explicit-resume programs (SpawnProgram)
	// instead of blocking goroutine bodies, so the matrix exercises program
	// procs interleaved with goroutine procs in every mode.
	useProgram := make([]bool, procs)
	for i := range useProgram {
		useProgram[i] = rng.Intn(2) == 0
	}

	var trace []stressRec
	for i := 0; i < procs; i++ {
		// blockingBody is the original transcription: ordinary blocking
		// primitives on a goroutine-backed process.
		blockingBody := func(p *Proc) {
			for r := 0; r < rounds; r++ {
				pr := &prog[i][r]
				if i > 0 {
					if pr.usePlan {
						pl := p.NewPlan()
						pl.steps = append(pl.steps, pr.steps...)
						if pr.useEvent {
							p.WaitPlan(evs[i][r], pl)
						} else {
							p.WaitGEPlan(tokens[i-1], int64(r+1), pl)
						}
					} else {
						if pr.useEvent {
							p.Wait(evs[i][r])
						} else {
							p.WaitGE(tokens[i-1], int64(r+1))
						}
						for s := range pr.steps {
							st := &pr.steps[s]
							switch st.kind {
							case stepSleep:
								p.Sleep(st.d)
							case stepBusy:
								done := st.pipe.Reserve(st.bytes)
								if c := p.Now() + st.d; c > done {
									done = c
								}
								p.SleepUntil(done)
							case stepAdd:
								st.c.Add(st.n)
							}
						}
					}
				}
				p.Sleep(pr.bodySleep)
				if pr.bodyPipe >= 0 {
					p.Transfer(pipes[pr.bodyPipe], pr.bodyBytes)
				}
				if i == 0 && det != nil && det.Capture() {
					t.Fatalf("seed %d mode %s: aperiodic workload fingerprinted as steady", seed, mode.name)
				}
				trace = append(trace, stressRec{proc: i, round: r, at: p.Now()})
				if i < procs-1 {
					if pr.signalEv {
						evs[i+1][r].Fire()
					}
					// The token always advances so counter-mode rounds after
					// event-mode rounds still see threshold r+1.
					tokens[i].Add(1)
				}
			}
		}
		// programBody is the identical protocol in explicit-resume form.
		programBody := func(p *Proc) {
			var round func(r int)
			var runSteps func(r, s int)
			var runBody func(r int)
			finishRound := func(r int) {
				pr := &prog[i][r]
				if i == 0 && det != nil && det.Capture() {
					t.Fatalf("seed %d mode %s: aperiodic workload fingerprinted as steady", seed, mode.name)
				}
				trace = append(trace, stressRec{proc: i, round: r, at: p.Now()})
				if i < procs-1 {
					if pr.signalEv {
						evs[i+1][r].Fire()
					}
					tokens[i].Add(1)
				}
				round(r + 1)
			}
			runBody = func(r int) {
				pr := &prog[i][r]
				p.SleepThen(pr.bodySleep, func() {
					if pr.bodyPipe >= 0 {
						p.BusyThen(pipes[pr.bodyPipe], pr.bodyBytes, 0, func() { finishRound(r) })
					} else {
						finishRound(r)
					}
				})
			}
			runSteps = func(r, s int) {
				pr := &prog[i][r]
				if s == len(pr.steps) {
					runBody(r)
					return
				}
				st := &pr.steps[s]
				switch st.kind {
				case stepSleep:
					p.SleepThen(st.d, func() { runSteps(r, s+1) })
				case stepBusy:
					p.BusyThen(st.pipe, st.bytes, st.d, func() { runSteps(r, s+1) })
				case stepAdd:
					st.c.Add(st.n)
					runSteps(r, s+1)
				}
			}
			round = func(r int) {
				if r == rounds {
					return
				}
				pr := &prog[i][r]
				if i == 0 {
					runBody(r)
					return
				}
				if pr.usePlan {
					pl := p.NewPlan()
					pl.steps = append(pl.steps, pr.steps...)
					if pr.useEvent {
						p.WaitPlanThen(evs[i][r], pl, func() { runBody(r) })
					} else {
						p.WaitGEPlanThen(tokens[i-1], int64(r+1), pl, func() { runBody(r) })
					}
					return
				}
				if pr.useEvent {
					p.WaitThen(evs[i][r], func() { runSteps(r, 0) })
				} else {
					p.WaitGEThen(tokens[i-1], int64(r+1), func() { runSteps(r, 0) })
				}
			}
			round(0)
		}
		if useProgram[i] {
			k.SpawnProgram(fmt.Sprintf("p%d", i), programBody)
		} else {
			k.Spawn(fmt.Sprintf("p%d", i), blockingBody)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("seed %d mode %s: %v", seed, mode.name, err)
	}
	return trace
}

// TestStressModeEquivalence is the scheduler's determinism obligation: the
// direct-handoff fast path and fused plans must not change what executes
// when, only which goroutine drives it.
func TestStressModeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		base := stressTrace(t, seed, stressModes[0])
		if len(base) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		for _, mode := range stressModes[1:] {
			got := stressTrace(t, seed, mode)
			if len(got) != len(base) {
				t.Fatalf("seed %d: %s trace has %d records, %s has %d",
					seed, mode.name, len(got), stressModes[0].name, len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("seed %d: %s diverges from %s at record %d: %+v vs %+v",
						seed, mode.name, stressModes[0].name, i, got[i], base[i])
				}
			}
		}
	}
}

// TestStressRerunStable re-runs one workload in the production mode and
// requires identical traces: pooled goroutine reuse across kernels must not
// leak state into scheduling decisions.
func TestStressRerunStable(t *testing.T) {
	const seed = 42
	a := stressTrace(t, seed, stressModes[0])
	for rerun := 0; rerun < 3; rerun++ {
		b := stressTrace(t, seed, stressModes[0])
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rerun %d diverges at record %d: %+v vs %+v", rerun, i, a[i], b[i])
			}
		}
	}
}

// TestDeadlockReportIdenticalAcrossModes deadlocks the same workload under
// every mode: the report (which names each blocked process and what it waits
// on) is part of the deterministic surface too.
func TestDeadlockReportIdenticalAcrossModes(t *testing.T) {
	build := func(mode stressMode) error {
		k := New()
		k.noHandoff, k.noFuse, k.noProgram, k.noExtrap =
			mode.noHandoff, mode.noFuse, mode.noProgram, mode.noExtrap
		c := k.NewCounter("starved")
		ev := k.NewEvent("missing")
		k.Spawn("waiter.ev", func(p *Proc) {
			p.Sleep(Nanosecond)
			p.Wait(ev)
		})
		k.Spawn("waiter.ge", func(p *Proc) { p.WaitGE(c, 7) })
		k.Spawn("waiter.plan", func(p *Proc) {
			pl := p.NewPlan()
			pl.Sleep(Nanosecond)
			p.WaitGEPlan(c, 9, pl)
		})
		k.SpawnProgram("waiter.prog", func(p *Proc) {
			p.SleepThen(Nanosecond, func() {
				p.WaitThen(ev, func() { t.Error("waiter.prog resumed") })
			})
		})
		k.SpawnProgram("waiter.progplan", func(p *Proc) {
			pl := p.NewPlan()
			pl.Sleep(Nanosecond)
			p.WaitGEPlanThen(c, 11, pl, func() { t.Error("waiter.progplan resumed") })
		})
		k.Spawn("finisher", func(p *Proc) {
			p.Sleep(5 * Nanosecond)
			c.Add(1)
		})
		return k.Run()
	}
	base := build(stressModes[0])
	if base == nil {
		t.Fatal("expected deadlock")
	}
	for _, want := range []string{
		"waiter.ev(event:missing)", "waiter.ge(counter:starved>=7)", "waiter.plan(counter:starved>=9)",
		"waiter.prog(event:missing)", "waiter.progplan(counter:starved>=11)",
	} {
		if !strings.Contains(base.Error(), want) {
			t.Fatalf("deadlock report %q missing %q", base, want)
		}
	}
	for _, mode := range stressModes[1:] {
		if err := build(mode); err == nil || err.Error() != base.Error() {
			t.Fatalf("%s deadlock report %q != %q", mode.name, err, base)
		}
	}
}

// TestPooledProcReuseAcrossKernels spins many short kernels so procs reuse
// parked pool workers, then deadlocks one: stale worker state must neither
// corrupt scheduling nor the deadlock report.
func TestPooledProcReuseAcrossKernels(t *testing.T) {
	for i := 0; i < 50; i++ {
		k := New()
		c := k.NewCounter("c")
		for j := 0; j < 20; j++ {
			k.Spawn(fmt.Sprintf("s%d", j), func(p *Proc) {
				p.Sleep(Time(j) * Nanosecond)
				c.Add(1)
			})
		}
		k.Spawn("sink", func(p *Proc) { p.WaitGE(c, 20) })
		if err := k.Run(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if n := pooledWorkers(); n == 0 {
		t.Fatal("no workers parked in the pool after repeated kernels")
	}
	k := New()
	ev := k.NewEvent("nope")
	k.Spawn("reused.stuck", func(p *Proc) { p.Wait(ev) })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "reused.stuck(event:nope)") {
		t.Fatalf("deadlock on a pooled proc misreported: %v", err)
	}
}
