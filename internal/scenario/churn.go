package scenario

import (
	"fmt"
	"time"

	"ethmeasure/internal/p2p"
	"ethmeasure/internal/sim"
)

// ChurnName addresses the node-turnover scenario.
const ChurnName = "churn"

// Default churn profile: one restart every two minutes with five-minute
// downtimes, roughly 12% of a 220-node population cycling per hour.
const (
	defaultChurnInterval = 2 * time.Minute
	defaultChurnDowntime = 5 * time.Minute
)

func init() {
	Register(Registration{
		Name:  ChurnName,
		Desc:  "restart random regular nodes (Kim et al. IMC'18 turnover)",
		Usage: "churn[:interval=2m,downtime=5m,redial=N]",
		New: func(p *Params) (Scenario, error) {
			c := &Churn{
				Interval:     p.Dur("interval", defaultChurnInterval),
				DowntimeMean: p.Dur("downtime", defaultChurnDowntime),
				RedialPeers:  p.Int("redial", 0),
			}
			if c.Interval <= 0 {
				return nil, fmt.Errorf("interval must be positive")
			}
			if c.DowntimeMean < 0 || c.RedialPeers < 0 {
				return nil, fmt.Errorf("negative downtime or redial")
			}
			return c, nil
		},
	})
}

// Churn models node churn: public Ethereum deployments see constant
// peer turnover (Kim et al., IMC'18, measured short node sessions
// across the network). A churn event restarts one random regular node:
// all its connections drop, and after a downtime it re-dials a fresh
// random peer set — exactly what a relaunched Geth does. Vantages and
// pool gateways are long-lived and never churn.
type Churn struct {
	// Interval is the mean time between churn events (exponentially
	// distributed).
	Interval time.Duration
	// DowntimeMean is the mean offline period before the node rejoins.
	DowntimeMean time.Duration
	// RedialPeers is how many peers a rejoining node dials (0 = the
	// campaign's OutDegree).
	RedialPeers int

	engine  *sim.Engine
	nodes   []*p2p.Node
	degree  int
	horizon sim.Time
	down    map[int]bool // node index -> currently offline
	events  int
}

var (
	_ Intervention    = (*Churn)(nil)
	_ MetricsReporter = (*Churn)(nil)
)

// Name implements Scenario.
func (c *Churn) Name() string { return ChurnName }

// Start schedules churn events over the regular population until the
// campaign horizon.
func (c *Churn) Start(env *Env) error {
	if c.Interval <= 0 {
		return nil
	}
	c.engine = env.Engine
	c.nodes = env.Regular
	c.degree = env.OutDegree
	if c.RedialPeers > 0 {
		c.degree = c.RedialPeers
	}
	c.horizon = env.Duration
	c.down = make(map[int]bool)
	c.scheduleNext()
	return nil
}

// Events returns how many restarts occurred.
func (c *Churn) Events() int { return c.events }

// Metrics implements MetricsReporter.
func (c *Churn) Metrics() map[string]float64 {
	return map[string]float64{"events": float64(c.events)}
}

func (c *Churn) scheduleNext() {
	rng := c.engine.RNG("churn")
	wait := sim.ExpDuration(rng, c.Interval)
	if c.engine.Now()+wait > c.horizon {
		return
	}
	c.engine.After(wait, func() {
		c.restartOne()
		c.scheduleNext()
	})
}

func (c *Churn) restartOne() {
	rng := c.engine.RNG("churn")
	// Pick an online node; give up after a few tries if most are down.
	for attempt := 0; attempt < 8; attempt++ {
		idx := rng.Intn(len(c.nodes))
		if c.down[idx] {
			continue
		}
		node := c.nodes[idx]
		node.DisconnectAll()
		c.down[idx] = true
		c.events++
		downtime := sim.ExpDuration(rng, c.DowntimeMean)
		c.engine.After(downtime, func() {
			c.down[idx] = false
			p2p.ConnectToRandom(rng, node, c.nodes, c.degree)
		})
		return
	}
}
