package serve

import (
	"strings"
	"testing"
)

// FuzzJobSpec feeds arbitrary request bodies through the submit path's
// spec handling: decodeJobSpec then Normalize must never panic, and a
// spec they both accept must build a Config that passes Validate.
func FuzzJobSpec(f *testing.F) {
	f.Add(`{"kind":"campaign","preset":"quick","duration":"10m","nodes":60,"seed":3}`)
	f.Add(`{"kind":"sweep","no_tx":true,"sweep":{"seeds":2,"nodes":[30,40],"protocols":["bitcoin"],"scenarios":["churn:interval=90s"]}}`)
	f.Add(`{"kind":"campaign","protocol":"ghost-inclusive:depth=10","scenarios":["partition:a=EA,start=5m,dur=10m"],"checkpoint_interval":"90s"}`)
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decodeJobSpec(strings.NewReader(body))
		if err != nil {
			return
		}
		if err := spec.Normalize(); err != nil {
			return
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("Normalize accepted %s, Config failed: %v", body, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Normalize accepted %s, its config is invalid: %v", body, err)
		}
	})
}
