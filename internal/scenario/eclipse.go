package scenario

import (
	"fmt"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/p2p"
)

// EclipseName addresses the targeted eclipse-attack scenario.
const EclipseName = "eclipse"

func init() {
	Register(Registration{
		Name:  EclipseName,
		Desc:  "monopolize a target node's peer slots with attacker relays",
		Usage: "eclipse[:node=N,attackers=2,region=EE,procspeed=3,uplinks=1]",
		New: func(p *Params) (Scenario, error) {
			s := &Eclipse{
				Target:    p.Int("node", -1),
				Attackers: p.Int("attackers", 2),
				Region:    p.Region("region", 0),
				ProcSpeed: p.Float("procspeed", 3.0),
				Uplinks:   p.Int("uplinks", 1),
			}
			if s.Target < -1 {
				return nil, fmt.Errorf("node index %d out of range", s.Target)
			}
			if s.Attackers < 1 {
				return nil, fmt.Errorf("need at least one attacker")
			}
			if s.ProcSpeed <= 0 {
				return nil, fmt.Errorf("procspeed must be positive")
			}
			if s.Uplinks < 1 {
				return nil, fmt.Errorf("attackers need at least one uplink")
			}
			return s, nil
		},
	})
}

// Eclipse models a classic eclipse attack (Heilman et al. / Marcus et
// al. for Ethereum): the victim's peer table is monopolized by
// attacker-controlled relays, so every block and transaction the
// victim sees first crosses attacker infrastructure. The victim's
// existing links are dropped and replaced by edges to freshly added
// attacker nodes; each attacker keeps Uplinks honest connections so
// the victim stays (slowly) synced rather than isolated. Attackers run
// deliberately slow relay hardware (ProcSpeed > 1), which is what
// delays the victim's view of the chain.
//
// Note the victim can regain honest peers only if other nodes dial it
// later (e.g. churn redials) — matching how real eclipses decay.
type Eclipse struct {
	// Target is the regular-node index to eclipse; -1 picks one at
	// random from the scenario's private RNG stream.
	Target int
	// Attackers is how many attacker relays surround the victim.
	Attackers int
	// Region places the attacker relays; 0 means the victim's region
	// (lowest-latency vantage for the attacker).
	Region geo.Region
	// ProcSpeed scales attacker processing delays (>1 = slow relaying,
	// the attack's lever on the victim's freshness).
	ProcSpeed float64
	// Uplinks is how many honest regular nodes each attacker dials.
	Uplinks int

	victim int
}

var (
	_ TopologyMutator = (*Eclipse)(nil)
	_ MetricsReporter = (*Eclipse)(nil)
)

// Name implements Scenario.
func (s *Eclipse) Name() string { return EclipseName }

// MutateTopology implements TopologyMutator: picks the victim, swaps
// its peer set for attacker relays, and wires the relays' uplinks.
func (s *Eclipse) MutateTopology(env *Env) error {
	rng := env.RNG(EclipseName)
	s.victim = s.Target
	if s.victim < 0 {
		s.victim = rng.Intn(len(env.Regular))
	}
	if s.victim >= len(env.Regular) {
		return fmt.Errorf("victim index %d out of range (have %d regular nodes)", s.victim, len(env.Regular))
	}
	victim := env.Regular[s.victim]
	region := s.Region
	if region == 0 {
		region = nodeRegion(victim)
	}

	// Honest candidates for attacker uplinks exclude the victim.
	honest := make([]*p2p.Node, 0, len(env.Regular)-1)
	for i, n := range env.Regular {
		if i != s.victim {
			honest = append(honest, n)
		}
	}

	victim.DisconnectAll()
	for i := 0; i < s.Attackers; i++ {
		endpoint, err := env.Network.AddNode(region, victim.Endpoint().Bandwidth)
		if err != nil {
			return err
		}
		attacker := p2p.NewNode(env.P2P, env.Network, endpoint, env.Registry)
		attacker.SetProcSpeed(s.ProcSpeed)
		env.Added = append(env.Added, attacker)
		p2p.Connect(victim, attacker)
		p2p.ConnectToRandom(rng, attacker, honest, s.Uplinks)
	}
	return nil
}

// Metrics implements MetricsReporter.
func (s *Eclipse) Metrics() map[string]float64 {
	return map[string]float64{
		"victim":    float64(s.victim),
		"attackers": float64(s.Attackers),
	}
}
