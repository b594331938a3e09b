package scenario

import (
	"fmt"
	"time"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/simnet"
)

// BandwidthName addresses the regional bandwidth-degradation scenario.
const BandwidthName = "bandwidth"

func init() {
	Register(Registration{
		Name:  BandwidthName,
		Desc:  "throttle every node in a region set for a window",
		Usage: "bandwidth:regions=EA+SEA[,factor=0.1][,start=5m][,dur=10m]",
		New: func(p *Params) (Scenario, error) {
			s := &Bandwidth{
				Regions: p.Regions("regions"),
				Factor:  p.Float("factor", 0.1),
				At:      p.Dur("start", 0),
				Window:  p.Dur("dur", 0),
			}
			if len(s.Regions) == 0 {
				return nil, fmt.Errorf("regions parameter is required")
			}
			if s.Factor <= 0 {
				return nil, fmt.Errorf("factor must be positive")
			}
			if s.At < 0 || s.Window < 0 {
				return nil, fmt.Errorf("negative start or dur")
			}
			return s, nil
		},
	})
}

// Bandwidth models regional capacity degradation (backbone congestion,
// DDoS on local infrastructure): at At, the bandwidth of every node in
// the region set — regular, gateway and vantage endpoints alike — is
// multiplied by Factor; after Window the original values are restored
// (Window 0 keeps the throttle to the end of the run). Transfer times
// reflect the change immediately because the network samples endpoint
// bandwidth per message.
type Bandwidth struct {
	// Regions is the affected region set.
	Regions []geo.Region
	// Factor multiplies affected bandwidths (0.1 = 10x slower).
	Factor float64
	// At is when the throttle engages.
	At time.Duration
	// Window is how long it lasts; 0 keeps it to the end.
	Window time.Duration

	affected int
}

var (
	_ Intervention    = (*Bandwidth)(nil)
	_ MetricsReporter = (*Bandwidth)(nil)
)

// Name implements Scenario.
func (s *Bandwidth) Name() string { return BandwidthName }

// Start implements Intervention: schedules the throttle window.
func (s *Bandwidth) Start(env *Env) error {
	if s.At >= env.Duration {
		return nil
	}
	set := regionSet(s.Regions)
	env.Engine.After(s.At, func() {
		var throttled []*simnet.Node
		for _, node := range env.Network.Nodes() {
			if !set[node.Region] {
				continue
			}
			throttled = append(throttled, node)
			node.Bandwidth *= s.Factor
		}
		s.affected = len(throttled)
		if s.Window > 0 {
			env.Engine.After(s.Window, func() {
				// Restore by dividing out the factor rather than
				// writing back saved absolute values: overlapping
				// bandwidth windows (two composed scenarios throttling
				// the same region) then unwind independently in any
				// order instead of resurrecting stale snapshots.
				for _, node := range throttled {
					node.Bandwidth /= s.Factor
				}
			})
		}
	})
	return nil
}

// Metrics implements MetricsReporter.
func (s *Bandwidth) Metrics() map[string]float64 {
	return map[string]float64{"nodes_affected": float64(s.affected)}
}
