package atpg

import (
	"math/rand"
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
			for _, f := range n.AllFaultSites() {
				p := newPodem(n, f, 0)
				for i, b := range bits {
					p.assign[i] = saVal(b)
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
