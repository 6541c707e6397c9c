package conformance

import (
	"context"
	"embed"
	"fmt"
	"io/fs"
	"sort"

	"perfscale/internal/campaign"
)

// The campaign family pins chaos-campaign reproducers as regression cases:
// every artifact under testdata/campaign is a minimal reproducer that a
// past campaign discovered, delta-debugged and verified (the canonical one
// is the under-provisioned failure detector: a DetectorInterval of 4 RTOs
// with 2 tolerated misses turns maskable 25% background loss into a
// spurious peer-failure verdict). The sweep re-runs each artifact from its
// JSON alone, bitwise, so the bug class stays caught even if the campaign
// engine, the enumeration, or the shrinker change.
//
// Artifacts are self-contained by design: they name their own machine
// preset and target, so the family ignores Config.Machine.
//
//go:embed testdata/campaign/*.json
var campaignArtifacts embed.FS

const campaignArtifactDir = "testdata/campaign"

func checkCampaign(ck *checker, cfg Config) error {
	const alg = "summa-arq"
	// Honour the -alg restriction like every other family: the pinned
	// artifacts all exercise the ARQ-backed SUMMA, so an explicit selection
	// that excludes it skips the replays.
	if len(cfg.Algorithms) > 0 {
		found := false
		for _, a := range cfg.Algorithms {
			if a == alg {
				found = true
			}
		}
		if !found {
			return nil
		}
	}
	entries, err := campaignArtifacts.ReadDir(campaignArtifactDir)
	if err != nil {
		return fmt.Errorf("conformance: campaign artifacts: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for _, e := range entries {
		data, err := fs.ReadFile(campaignArtifacts, campaignArtifactDir+"/"+e.Name())
		if err != nil {
			return fmt.Errorf("conformance: campaign artifact %s: %w", e.Name(), err)
		}
		r, err := campaign.Load(data)
		if err != nil {
			return fmt.Errorf("conformance: campaign artifact %s: %w", e.Name(), err)
		}
		pt := Point{N: r.Target.N, P: r.Target.Ranks(), Q: r.Target.Q}
		ck.checkTrue("campaign/minimized-strictly-fewer", alg, pt, "",
			r.MinimizedCoords < r.DiscoveredCoords,
			float64(r.MinimizedCoords), float64(r.DiscoveredCoords),
			fmt.Sprintf("%s: shrinking must strictly reduce fault coordinates", e.Name()))
		verr := r.Verify(context.Background())
		ck.checkTrue("campaign/replays-bitwise", alg, pt, "",
			verr == nil, 0, 0,
			fmt.Sprintf("%s: pinned reproducer (%s violates %s) no longer replays: %v",
				e.Name(), r.Kind, r.Invariant, verr))
	}
	return nil
}
