package scenario

import (
	"fmt"

	"ethmeasure/internal/mining"
)

// WithholdName addresses the selfish block-withholding scenario.
const WithholdName = "withhold"

func init() {
	Register(Registration{
		Name:  WithholdName,
		Desc:  "selfish block-withholding attack on one pool (Eyal-Sirer)",
		Usage: "withhold:pool=Ethermine[,depth=3]",
		New: func(p *Params) (Scenario, error) {
			w := &Withhold{
				Pool:  p.Str("pool", ""),
				Depth: p.Int("depth", 3),
			}
			if w.Pool == "" {
				return nil, fmt.Errorf("pool parameter is required")
			}
			if w.Depth < 2 {
				return nil, fmt.Errorf("depth %d < 2", w.Depth)
			}
			return w, nil
		},
	})
}

// Withhold attaches the selfish block-withholding strategy
// (mining.Withholding) to the named pool: the pool keeps its blocks
// private, extends its private chain, and publishes in a burst when
// the public chain threatens it or the lead reaches Depth.
type Withhold struct {
	// Pool names the attacking pool.
	Pool string
	// Depth is the private-chain length that forces a release.
	Depth int

	strategy *mining.Withholding
}

var (
	_ MinerStrategy   = (*Withhold)(nil)
	_ MetricsReporter = (*Withhold)(nil)
)

// Name implements Scenario.
func (w *Withhold) Name() string { return WithholdName }

// AttachStrategy implements MinerStrategy.
func (w *Withhold) AttachStrategy(m *mining.Miner) error {
	s, err := mining.NewWithholding(w.Depth)
	if err != nil {
		return err
	}
	if err := m.AttachStrategy(w.Pool, s); err != nil {
		return err
	}
	w.strategy = s
	return nil
}

// Metrics implements MetricsReporter: burst releases and blocks
// published through bursts.
func (w *Withhold) Metrics() map[string]float64 {
	if w.strategy == nil {
		return nil
	}
	return map[string]float64{
		"bursts":   float64(w.strategy.Bursts()),
		"released": float64(w.strategy.Released()),
	}
}
