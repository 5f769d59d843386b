package queuing

import (
	"errors"
	"math"
)

// Solution is the output of Solve: the continuous optimizer of problem (∗)
// and a practical integer thread allocation derived from it.
type Solution struct {
	// Threads is the continuous optimum t_i.
	Threads []float64
	// Integer is the integer allocation actually installed in a server
	// (each stage gets ≥ 1 thread; the CPU constraint is respected).
	Integer []int
	// Objective is the (∗) objective value at Threads.
	Objective float64
	// UsedClosedForm reports whether the Theorem 2 closed form applied
	// (η ≥ ζ); otherwise the projected-gradient path ran.
	UsedClosedForm bool
}

// ErrInfeasible is returned when the offered load exceeds the server's
// processing capacity (Σ λ_i·β_i/s_i ≥ p): no thread allocation can keep all
// queues stable.
var ErrInfeasible = errors.New("queuing: offered load infeasible for this server")

// ClosedForm evaluates the Theorem 2 solution
//
//	t_i = λ_i/s_i + √(λ_i / (λ_tot·η·s_i))
//
// which optimizes (∗) whenever the system is feasible and η ≥ ζ.
func ClosedForm(m *Model) ([]float64, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	if !m.Feasible() {
		return nil, ErrInfeasible
	}
	if m.Eta <= 0 {
		return nil, errors.New("queuing: closed form requires η > 0")
	}
	ltot := m.TotalLambda()
	t := make([]float64, len(m.Stages))
	for i, s := range m.Stages {
		t[i] = s.Lambda/s.ServiceRate + math.Sqrt(s.Lambda/(ltot*m.Eta*s.ServiceRate))
	}
	return t, nil
}

// Solve computes the latency-optimal thread allocation for the model. It
// uses the Theorem 2 closed form when its premise (η ≥ ζ) holds — the
// common case under plausible η — and falls back to projected gradient
// descent on the convex problem (∗) otherwise (§5.3, "Solution").
func Solve(m *Model) (Solution, error) {
	if err := m.validate(); err != nil {
		return Solution{}, err
	}
	if !m.Feasible() {
		return Solution{}, ErrInfeasible
	}
	zeta, err := m.Zeta()
	if err != nil {
		return Solution{}, err
	}

	var t []float64
	usedClosed := false
	if m.Eta >= zeta && m.Eta > 0 {
		t, err = ClosedForm(m)
		if err != nil {
			return Solution{}, err
		}
		// The closed form ignores the CPU constraint; η ≥ ζ guarantees it
		// is satisfied, but guard against floating-point slop.
		if m.CPUUsage(t) <= m.Processors*(1+1e-9) {
			usedClosed = true
		}
	}
	if !usedClosed {
		t = projectedGradient(m)
	}

	sol := Solution{
		Threads:        t,
		Integer:        IntegerAllocation(m, t),
		Objective:      m.Latency(t),
		UsedClosedForm: usedClosed,
	}
	return sol, nil
}

// lowerBounds returns the stability lower bound λ_i/s_i (+ margin) per stage.
func lowerBounds(m *Model) []float64 {
	lb := make([]float64, len(m.Stages))
	for i, s := range m.Stages {
		lb[i] = s.Lambda/s.ServiceRate + 1e-9
	}
	return lb
}

// projectedGradient minimizes (∗) subject to Σ t_i·β_i ≤ p and stability,
// by gradient descent with projection onto the feasible set. The objective
// is convex in t, so this converges to the constrained optimum.
func projectedGradient(m *Model) []float64 {
	lb := lowerBounds(m)
	n := len(m.Stages)
	ltot := m.TotalLambda()

	// Start mid-way between the stability bound and the CPU budget.
	t := make([]float64, n)
	slackCPU := m.Processors - m.MinFeasibleCPU()
	var betaSum float64
	for _, s := range m.Stages {
		betaSum += s.Beta
	}
	for i := range t {
		t[i] = lb[i] + 0.5*slackCPU/betaSum
	}
	project(m, lb, t)

	grad := make([]float64, n)
	step := 1.0
	prev := m.Latency(t)
	for iter := 0; iter < 5000; iter++ {
		for i, s := range m.Stages {
			d := s.ServiceRate*t[i] - s.Lambda
			grad[i] = -(s.Lambda*s.ServiceRate)/(ltot*d*d) + m.Eta
		}
		// Backtracking line search on the projected step.
		improved := false
		for ls := 0; ls < 40; ls++ {
			cand := make([]float64, n)
			for i := range cand {
				cand[i] = t[i] - step*grad[i]
			}
			project(m, lb, cand)
			obj := m.Latency(cand)
			if obj < prev {
				copy(t, cand)
				if prev-obj < 1e-12*math.Max(1, prev) {
					return t
				}
				prev = obj
				improved = true
				step *= 1.5
				break
			}
			step /= 2
		}
		if !improved {
			break
		}
	}
	return t
}

// project moves t onto {t ≥ lb, Σ t·β ≤ p} by clamping to the lower bounds
// and then uniformly shrinking the slack above the bounds to fit the CPU
// budget. The result is always strictly feasible when the model is.
func project(m *Model, lb, t []float64) {
	for i := range t {
		if t[i] < lb[i] {
			t[i] = lb[i]
		}
	}
	use := m.CPUUsage(t)
	if use <= m.Processors {
		return
	}
	var lbUse, slackUse float64
	for i, s := range m.Stages {
		lbUse += lb[i] * s.Beta
		slackUse += (t[i] - lb[i]) * s.Beta
	}
	if slackUse <= 0 {
		return // nothing to shrink; lb itself uses ≤ p for feasible models
	}
	f := (m.Processors - lbUse) / slackUse
	if f < 0 {
		f = 0
	}
	for i := range t {
		t[i] = lb[i] + f*(t[i]-lb[i])
	}
}

// IntegerAllocation converts a continuous allocation into whole threads:
// every stage gets at least one thread and at least enough to keep its
// queue stable; remaining threads are assigned greedily to whichever stage
// most reduces the (∗) objective, while the CPU constraint admits.
//
// Stability outranks the budget: when the budget is integrally tight (the
// minimal stable integer allocation Σ(⌊λ_i/s_i⌋+1)·β_i already exceeds p,
// even though the continuous problem is feasible), the minimal stable
// allocation is returned as-is — a server slightly over CPU budget beats
// an unboundedly growing queue, and core's budgetFactor slack
// absorbs the overage. Greedy additions beyond that floor never exceed p.
func IntegerAllocation(m *Model, t []float64) []int {
	n := len(m.Stages)
	alloc := make([]int, n)
	// Floor of the stability bound + 1 keeps µ_i > λ_i with integer threads.
	for i, s := range m.Stages {
		minT := int(math.Floor(s.Lambda/s.ServiceRate)) + 1
		if minT < 1 {
			minT = 1
		}
		alloc[i] = minT
	}
	asFloat := func(a []int) []float64 {
		f := make([]float64, len(a))
		for i, v := range a {
			f[i] = float64(v)
		}
		return f
	}
	target := make([]int, n)
	for i := range target {
		target[i] = int(math.Ceil(t[i]))
		if target[i] < alloc[i] {
			target[i] = alloc[i]
		}
	}
	// Greedy: add one thread at a time where it helps the objective most,
	// never exceeding ceil(continuous optimum) per stage.
	for {
		cur := m.Latency(asFloat(alloc))
		bestGain := 0.0
		bestIdx := -1
		for i := range alloc {
			if alloc[i] >= target[i] {
				continue
			}
			alloc[i]++
			if m.CPUUsage(asFloat(alloc)) <= m.Processors+1e-9 {
				if gain := cur - m.Latency(asFloat(alloc)); gain > bestGain {
					bestGain = gain
					bestIdx = i
				}
			}
			alloc[i]--
		}
		if bestIdx < 0 {
			break
		}
		alloc[bestIdx]++
	}
	return alloc
}

// QueueLengthController is the threshold-based controller of prior SEDA work
// (Welsh's thesis), reproduced for the Fig. 7 instability experiment: every
// control period, a stage whose queue exceeds Th gains a thread and a stage
// whose queue is under Tl loses one (floor 1).
type QueueLengthController struct {
	// Th and Tl are the grow/shrink queue-length thresholds.
	Th, Tl int
	// MaxThreads caps per-stage threads (0 = uncapped).
	MaxThreads int
}

// Update returns the next allocation given current queue lengths.
func (c *QueueLengthController) Update(threads []int, queueLens []int) []int {
	next := make([]int, len(threads))
	copy(next, threads)
	for i := range next {
		if i >= len(queueLens) {
			break
		}
		switch {
		case queueLens[i] > c.Th:
			if c.MaxThreads == 0 || next[i] < c.MaxThreads {
				next[i]++
			}
		case queueLens[i] < c.Tl:
			if next[i] > 1 {
				next[i]--
			}
		}
	}
	return next
}
