package core

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"actop/internal/actor"
	"actop/internal/metrics"
	"actop/internal/transport"
)

// familyName matches a metric family name in a registration call's source.
var familyName = regexp.MustCompile(`"(actop_[a-z0-9_]+)"`)

// registeredFamilies lists every actop_ family the non-test sources of the
// actor, core and metrics packages name — what a node with a registry, the
// profiler and an optimizer can expose.
func registeredFamilies(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	var out []string
	for _, dir := range []string{"../actor", ".", "../metrics"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range familyName.FindAllStringSubmatch(string(src), -1) {
				if !seen[m[1]] {
					seen[m[1]] = true
					out = append(out, m[1])
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("found no actop_ family in the actor, core and metrics sources")
	}
	return out
}

// TestMetricSeriesBounded holds the registry to bounded label cardinality
// under a workload: a 3-node cluster with a registry per node, every root
// call traced, the profiler on and an optimizer publishing its stage
// gauges. It drives n distinct actors through a fixed set of methods and
// counts the exposition's series (its non-comment lines), then drives 8n
// more actors through the same methods: a label derived from an actor, a
// key or any other unbounded set adds a series per actor, so the count must
// grow by fewer than n. Every actop_ family the sources register must
// appear, so a family this workload stops exercising fails here instead of
// escaping the check.
func TestMetricSeriesBounded(t *testing.T) {
	const n = 64
	net := transport.NewNetwork(0)
	peers := []transport.NodeID{"card-0", "card-1", "card-2"}
	var (
		sys  []*actor.System
		regs []*metrics.Registry
		opts []*Optimizer
	)
	for i, p := range peers {
		reg := metrics.NewRegistry()
		metrics.RegisterRuntimeGauges(reg)
		s, err := actor.NewSystem(actor.Config{
			Transport: net.Join(p), Peers: peers, Seed: int64(i + 1),
			CallTimeout:     3 * time.Second,
			TraceSampleRate: 1,
			Metrics:         reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		s.RegisterType("group", func() actor.Actor { return &groupActor{} })
		sys, regs, opts = append(sys, s), append(regs, reg), append(opts, NewOptimizer(s, DefaultOptions()))
	}
	// drive sends each actor in [from, to) the same two calls: a turn that
	// returns nothing and one that fails. Neither makes a nested call, so no
	// allocation the controller installs can wedge a turn.
	drive := func(from, to int) {
		for k := from; k < to; k++ {
			ref := actor.Ref{Type: "group", Key: fmt.Sprintf("card-%d", k)}
			if err := sys[k%len(sys)].Call(ref, "Ping", "x", nil); err != nil {
				t.Fatalf("Ping %s: %v", ref, err)
			}
			if err := sys[k%len(sys)].Call(ref, "Unknown", nil, nil); err == nil {
				t.Fatalf("Unknown %s: no error", ref)
			}
		}
	}
	// exposition retunes every optimizer (publishing its gauges) and returns
	// the cluster's exposition lines, comments dropped.
	exposition := func() []string {
		var lines []string
		for i, reg := range regs {
			opts[i].Retune()
			var b strings.Builder
			reg.Write(&b)
			for _, l := range strings.Split(b.String(), "\n") {
				if l != "" && !strings.HasPrefix(l, "#") {
					lines = append(lines, l)
				}
			}
		}
		return lines
	}

	drive(0, n)
	before := len(exposition())
	drive(n, 9*n)
	after := exposition()
	t.Logf("series: %d after %d actors, %d after %d", before, n, len(after), 9*n)
	if grew := len(after) - before; grew >= n {
		t.Errorf("series grew by %d over %d more actors (bound %d): a label takes values from an unbounded set", grew, 8*n, n)
	}
	for _, fam := range registeredFamilies(t) {
		found := false
		for _, l := range after {
			if strings.HasPrefix(l, fam+"{") || strings.HasPrefix(l, fam+" ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("family %s is registered but this workload never exposes it", fam)
		}
	}
}
