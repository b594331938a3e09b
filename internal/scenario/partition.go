package scenario

import (
	"fmt"
	"time"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/p2p"
)

// PartitionName addresses the regional network-partition scenario.
const PartitionName = "partition"

func init() {
	Register(Registration{
		Name:  PartitionName,
		Desc:  "sever all links between two region sets for a window",
		Usage: "partition:a=EA+SEA[,b=NA+WE][,start=5m][,dur=10m]",
		New: func(p *Params) (Scenario, error) {
			s := &Partition{
				A:      p.Regions("a"),
				B:      p.Regions("b"),
				At:     p.Dur("start", 0),
				Window: p.Dur("dur", 0),
			}
			if len(s.A) == 0 {
				return nil, fmt.Errorf("region set a is required")
			}
			if s.At < 0 || s.Window < 0 {
				return nil, fmt.Errorf("negative start or dur")
			}
			aSet := regionSet(s.A)
			if len(s.B) == 0 {
				s.B = complementRegions(aSet)
			}
			for _, r := range s.B {
				if aSet[r] {
					return nil, fmt.Errorf("region %s on both sides of the cut", r.Code())
				}
			}
			return s, nil
		},
	})
}

// Partition models a regional network split (submarine-cable cut,
// national-firewall event): at At, every link whose endpoints fall on
// opposite sides of the A/B cut is severed — regular nodes, pool
// gateways and vantages alike. After Window the exact severed links
// are re-established (Window 0 keeps the split until the end of the
// run).
//
// Links formed during the window (e.g. by churn redials) are not
// policed: a long-lasting real partition also leaks through relays
// eventually, and the windowed cut is what the reorg/fork analyses
// care about.
type Partition struct {
	// A and B are the two region sets of the cut. B empty at parse time
	// means the complement of A.
	A, B []geo.Region
	// At is when the cut happens.
	At time.Duration
	// Window is how long the cut lasts; 0 keeps it to the end.
	Window time.Duration

	severed int
	healed  bool
}

var (
	_ Intervention    = (*Partition)(nil)
	_ MetricsReporter = (*Partition)(nil)
)

// Name implements Scenario.
func (s *Partition) Name() string { return PartitionName }

// Start implements Intervention: schedules the cut and, when a window
// is configured, the heal.
func (s *Partition) Start(env *Env) error {
	if s.At >= env.Duration {
		return nil // window entirely outside the run
	}
	aSet, bSet := regionSet(s.A), regionSet(s.B)
	env.Engine.After(s.At, func() {
		cut := s.sever(env, aSet, bSet)
		s.severed = len(cut)
		if s.Window > 0 {
			env.Engine.After(s.Window, func() {
				for _, pair := range cut {
					p2p.Connect(pair[0], pair[1])
				}
				s.healed = true
			})
		}
	})
	return nil
}

// sever disconnects every edge crossing the cut and returns the severed
// pairs in deterministic order.
func (s *Partition) sever(env *Env, aSet, bSet map[geo.Region]bool) [][2]*p2p.Node {
	var cut [][2]*p2p.Node
	for _, node := range env.AllNodes() {
		if !aSet[nodeRegion(node)] {
			continue
		}
		for _, peer := range node.Peers() {
			if !bSet[nodeRegion(peer)] {
				continue
			}
			p2p.Disconnect(node, peer)
			cut = append(cut, [2]*p2p.Node{node, peer})
		}
	}
	return cut
}

// Metrics implements MetricsReporter.
func (s *Partition) Metrics() map[string]float64 {
	healed := 0.0
	if s.healed {
		healed = 1
	}
	return map[string]float64{
		"severed_links": float64(s.severed),
		"healed":        healed,
	}
}
