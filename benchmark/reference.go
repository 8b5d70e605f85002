package main

import "time"

// The box is shared, and for anything from half a second to many minutes a
// neighbour makes whatever runs on it up to twice as slow. Ten runs of one
// workload then spread (interquartile range over median) by a quarter on
// every raw time, and runs minutes apart differ by more; no statistic of a
// fifteen-second window removes a slowdown that outlasts the window. So the
// benchmark times a fixed piece of work of its own between the blocks of a
// window, while the program under test has nothing to do, and counts every
// time measured in a block in units of that work: a time taken while the
// reference ran at half its nominal speed counts half. A slower program still
// reads slower, because the reference holds nothing of it and is never timed
// while it works; a slower box does not.
//
// The reference must never change: every gated time of every commit is a
// multiple of it. It is eight independent multiply-add chains streaming
// through a megabyte (what the sweep's kernels do), it allocates nothing, and
// it runs on one thread.

const (
	refFloats = 128 << 10 // per array; two arrays make 1 MiB
	refSweeps = 32
	// referenceNominal is what the reference takes on this box when no
	// neighbour is active. It only fixes the scale: at nominal speed the
	// gated numbers equal the raw ones. It is not a tuning knob; changing it
	// rescales every gated time of every commit alike.
	referenceNominal = 2200 * time.Microsecond
)

type referenceWork struct {
	a, b []float32
	sink float32
}

func newReferenceWork() *referenceWork {
	r := &referenceWork{a: make([]float32, refFloats), b: make([]float32, refFloats)}
	for i := range r.a {
		r.a[i], r.b[i] = float32(i%7)*0.5, float32(i%5)*0.25
	}
	return r
}

// time does the reference work once on the calling goroutine and returns how
// long it took.
func (r *referenceWork) time() time.Duration {
	t0 := time.Now()
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	for rep := 0; rep < refSweeps; rep++ {
		a, b := r.a, r.b
		for k := 0; k+8 <= len(a); k += 8 {
			s0 += a[k] * b[k]
			s1 += a[k+1] * b[k+1]
			s2 += a[k+2] * b[k+2]
			s3 += a[k+3] * b[k+3]
			s4 += a[k+4] * b[k+4]
			s5 += a[k+5] * b[k+5]
			s6 += a[k+6] * b[k+6]
			s7 += a[k+7] * b[k+7]
		}
	}
	r.sink += s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
	return time.Since(t0)
}

// stretch is something timed with the reference work timed just before and
// just after it.
type stretch struct {
	length time.Duration
	cpu    time.Duration // process CPU time spent during it (user+sys, all threads)
	ref    time.Duration // mean of the two reference readings
}

// speed is how fast the box ran during the stretch, relative to nominal: 1
// with no neighbour, 0.5 when the reference took twice its nominal time.
func (s stretch) speed() float64 { return float64(referenceNominal) / float64(s.ref) }

// nominal converts a time measured during the stretch into the time it would
// have taken at nominal speed.
func (s stretch) nominal(d time.Duration) time.Duration {
	return time.Duration(float64(d) * s.speed())
}

// stopwatch times consecutive stretches, sharing the reference reading
// between one's end and the next one's beginning. A reading is the fastest
// of a few timings in a row: one between the short blocks of a window, where
// there are dozens to average over; three around the few long stretches (a
// RecommendAll pass, a set-up), where each reading carries more weight and
// the runtime may still be collecting what the stretch allocated. A
// neighbour lasts far longer than three timings and slows all of them.
type stopwatch struct {
	work    *referenceWork
	timings int
	last    time.Duration
}

func newStopwatch(timings int) *stopwatch {
	w := &stopwatch{work: newReferenceWork(), timings: timings}
	w.last = w.read()
	return w
}

func (w *stopwatch) read() time.Duration {
	best := w.work.time()
	for k := 1; k < w.timings; k++ {
		if d := w.work.time(); d < best {
			best = d
		}
	}
	return best
}

// stretch closes a stretch of the given length and CPU time that began right
// after the previous reading and ended just now.
func (w *stopwatch) stretch(length, cpu time.Duration) stretch {
	next := w.read()
	s := stretch{length: length, cpu: cpu, ref: (w.last + next) / 2}
	w.last = next
	return s
}

// laps times a set-up stage by stage, with a reading after every stage, and
// adds the stages up at nominal speed: a set-up lasts seconds, longer than
// the box stays at one speed.
type laps struct {
	watch   *stopwatch
	from    time.Time
	nominal time.Duration
}

func newLaps() *laps { return &laps{watch: newStopwatch(3)} }

// begin starts a set-up: a fresh reading, and the clock from now.
func (l *laps) begin() {
	l.watch.last = l.watch.read()
	l.nominal = 0
	l.from = time.Now()
}

// lap closes the stage that began at the previous lap (or at begin). The
// readings themselves are not part of any stage.
func (l *laps) lap() {
	s := l.watch.stretch(time.Since(l.from), 0) // a stage's CPU time is not used
	l.nominal += s.nominal(s.length)
	l.from = time.Now()
}
