package atpg

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rescue/internal/netlist"
)

// TestImplyMatchesEvalComb ties PODEM's three-valued evaluator to the one
// 64-lane truth table: with every PI and FF Q assigned a definite value,
// imply's good plane must equal lane 0 of State.EvalComb(NoFault) on every
// net, and its bad plane lane 0 of EvalComb(f) with the fault injected —
// for every fault site of every circuit.
func TestImplyMatchesEvalComb(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		n := netlist.Random(netlist.RandomConfig{Seed: seed})
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(seed)))
		for trial := 0; trial < 4; trial++ {
			bits := make([]bool, len(n.Inputs)+n.NumFFs())
			for i := range bits {
				bits[i] = r.Intn(2) == 1
			}
			eval := func(f netlist.Fault) *netlist.State {
				st := n.NewState()
				for i, net := range n.Inputs {
					st.SetBool(net, bits[i])
				}
				for i := range n.FFs {
					st.SetBool(n.FFs[i].Q, bits[len(n.Inputs)+i])
				}
				st.EvalComb(f)
				return st
			}
			good := eval(netlist.NoFault)
			p := newPodem(n)
			for _, f := range n.AllFaultSites() {
				p.reset(f, 0)
				for i, b := range bits {
					p.set(i, saVal(b))
				}
				p.imply()
				bad := eval(f)
				for net := netlist.NetID(0); int(net) < n.NumNets(); net++ {
					if want := saVal(good.Bool(net)); p.good[net] != want {
						t.Fatalf("seed %d %v: good net %d = %v, want %v", seed, f, net, p.good[net], want)
					}
					if want := saVal(bad.Bool(net)); p.bad[net] != want {
						t.Fatalf("seed %d %v: bad net %d = %v, want %v", seed, f, net, p.bad[net], want)
					}
				}
			}
		}
	}
}

// fullImply is the reference implication: every gate of the view in
// topological order, over both planes, from nothing but p's fault and PI
// assignment.
func fullImply(p *podem) (good, bad []V3) {
	n, v, f := p.n, p.v, p.fault
	good, bad = make([]V3, n.NumNets()), make([]V3, n.NumNets())
	for i, net := range p.pis {
		good[net], bad[net] = p.assign[i], p.assign[i]
	}
	if f.Gate < 0 && f.FF >= 0 {
		bad[n.FFs[f.FF].Q] = p.stuck
	}
	for _, g := range v.Order {
		out := v.Out[g]
		good[out] = p.eval3(good, g, -1)
		switch {
		case g != f.Gate:
			bad[out] = p.eval3(bad, g, -1)
		case f.Pin >= 0:
			bad[out] = p.eval3(bad, g, f.Pin)
		default:
			bad[out] = p.stuck
		}
	}
	return good, bad
}

// checkAgainstFull compares p's planes with fullImply on every net, and
// its cone-bounded scans with whole-netlist ones.
func checkAgainstFull(t *testing.T, p *podem, where string) {
	t.Helper()
	good, bad := fullImply(p)
	for net := range good {
		if p.good[net] != good[net] || p.bad[net] != bad[net] {
			t.Fatalf("%s: net %d good/bad = %v/%v, full pass %v/%v",
				where, net, p.good[net], p.bad[net], good[net], bad[net])
		}
	}
	v, f := p.v, p.fault
	var anyErr bool
	var frontier []netlist.GateID
	for gi, o := range v.Out {
		if p.isError(o) {
			anyErr = true
			continue
		}
		if p.good[o] != X && p.bad[o] != X {
			continue
		}
		for _, in := range p.pins(netlist.GateID(gi)) {
			if p.isError(in) {
				frontier = append(frontier, netlist.GateID(gi))
				break
			}
		}
	}
	atObs := false
	for net := range v.ObsHead {
		if v.ObsHead[net] >= 0 && p.isError(netlist.NetID(net)) {
			atObs = true
		}
	}
	if f.Gate < 0 && f.FF >= 0 {
		q, d := p.n.FFs[f.FF].Q, p.n.FFs[f.FF].D
		anyErr = anyErr || p.isError(q)
		atObs = atObs || p.good[d] != X && p.good[d] != p.stuck
	}
	if got := p.anyError(); got != anyErr {
		t.Fatalf("%s: anyError = %v, whole-netlist scan %v", where, got, anyErr)
	}
	if got := p.dFrontier(); !slices.Equal(got, frontier) {
		t.Fatalf("%s: dFrontier = %v, whole-netlist scan %v", where, got, frontier)
	}
	if got := p.errorAtOutput(); got != atObs {
		t.Fatalf("%s: errorAtOutput = %v, whole-netlist scan %v", where, got, atObs)
	}
}

// TestIncrementalImply drives random sequences of PI pushes, flips and
// unsets to X over partial assignments, for every fault site of random
// circuits on one reused workspace, and after every imply requires both
// planes to equal a from-scratch full implication and the cone-bounded
// scans to equal whole-netlist ones.
func TestIncrementalImply(t *testing.T) {
	configs := []netlist.RandomConfig{}
	for seed := uint64(0); seed < 30; seed++ {
		configs = append(configs, netlist.RandomConfig{Seed: seed})
	}
	for seed := uint64(0); seed < 2; seed++ {
		configs = append(configs, netlist.RandomConfig{Seed: 1000 + seed, Gates: 120, FFs: 16, Inputs: 10})
	}
	for _, cfg := range configs {
		n := netlist.Random(cfg)
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(cfg.Seed)))
		p := newPodem(n)
		for _, f := range n.AllFaultSites() {
			p.reset(f, 0)
			where := fmt.Sprintf("seed %d %v", cfg.Seed, f)
			checkAgainstFull(t, p, where+" after reset")
			for step := 0; step < 16; step++ {
				for ops := 1 + r.Intn(3); ops > 0; ops-- {
					pi := r.Intn(len(p.assign))
					switch {
					case p.assign[pi] == X:
						p.set(pi, saVal(r.Intn(2) == 1))
					case r.Intn(2) == 0:
						p.set(pi, not3(p.assign[pi]))
					default:
						p.set(pi, X)
					}
				}
				p.imply()
				checkAgainstFull(t, p, fmt.Sprintf("%s step %d", where, step))
			}
		}
	}
}
