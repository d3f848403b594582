package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fsmpredict/internal/trace"
)

// goldenEvents is the trace length the generator goldens are pinned at:
// long enough that every site runs hundreds of passes, short enough to
// keep the test fast.
const goldenEvents = 20_000

// branchGolden and loadGolden pin the SHA-256 of each generated trace in
// trace.WriteBranches / trace.WriteLoads form, keyed "program/variant".
// They are not differential: Generate and the packed store path share
// one emission loop, so a reordered random draw or emission would move
// both together, and only these fixed digests would notice.
var branchGolden = map[string]string{
	"compress/train": "480a92f4240a89883c905f14521cc749681c481a36de5f6a072ebcef978283f9",
	"compress/test":  "778e4aaa73fe9f06f133aa1610f36b9f154e89af2b996f627fd683aa050e634b",
	"gs/train":       "94486379a1d2467611054575059e49115a673f20d2bdf9fb6acfff7be34402aa",
	"gs/test":        "559363f3868edc5901bc3ff91e013cb775f0aedf3a4a3e4393dcb709e25af7c4",
	"gsm/train":      "649536da508bc30aa00f2bec0038beb9151f8f253dc0bf0932d73f5542239e42",
	"gsm/test":       "84e473303c043812635287e9ef1b2df7ec3cf2ffdb124ceccdf90f9a1bb08ae4",
	"g721/train":     "fce9612c40c4a599a2ee59bc6a1f9f84d2dbc2b5e05fba1cc061c1117f27de1f",
	"g721/test":      "c1d0f116a2239ad0a665662c9a79e05510893c69ebdfb1e76f2225eb3decef04",
	"ijpeg/train":    "ae864dcfad9b0f74a82716aa3b8522f82515afd8fb42adee4030a8ab520787a3",
	"ijpeg/test":     "904f2dc987e9071da71f1d10c79c7abe88875d34d3ee9e3fc2ff0063d7817845",
	"vortex/train":   "dd97599b54dcb0cae8a6c9b4a8510d7ad346c1bea835a082d161ef2e937d0f1e",
	"vortex/test":    "c5c010eaad5c2dda7a5f74cc49f0af9d83f802fa01f3198c740ec291b96f2a46",
}

var loadGolden = map[string]string{
	"gcc/train":   "636ad7f5a11d97800dde0180da2e494dce2d3ad8c7af8be369c1b55920c8830d",
	"gcc/test":    "6c969b0d39196185a4edd1a522feb1e719967bf810ff26da274fed10d7aeda8a",
	"go/train":    "39a145b1adbc1cfe2fa5cf982645986f73e425544d8b944c38c8fe19ee8dc075",
	"go/test":     "48e8e06cb676976682f6ad5ba2c815115c42d86d9fb7241992066339d7e87bcb",
	"groff/train": "388cd1cd625bcbe15e84c9f0cea58fb37b3f471cd75d2542d19d0a0b98ee2bb7",
	"groff/test":  "46313e4b0c51b48bfc25cdbb8a38783569e2b083f81212c36dc34dbd74f26fe8",
	"li/train":    "d4eb8f6be81fd3bbc7f2fa1f04b26894191397db17b6ad245968d0ee31ab2210",
	"li/test":     "c8627e7eea6a9e8a0dd8660071f29662dfcd4fc08789ab5f9964f2522664e417",
	"perl/train":  "3d1609bf0a7a77c83c2d4bfb6c301b9bd47eb135cf018fd3f998908f4497bda0",
	"perl/test":   "a558d0a05ac0e71bd7975e5862b491a90213c450f3c6caa1a58bd53ee1e4b04d",
}

func TestGeneratorGolden(t *testing.T) {
	for _, p := range BranchSuite() {
		for _, v := range []Variant{Train, Test} {
			h := sha256.New()
			if err := trace.WriteBranches(h, p.Generate(v, goldenEvents)); err != nil {
				t.Fatal(err)
			}
			key := p.Name + "/" + v.String()
			if got := hex.EncodeToString(h.Sum(nil)); got != branchGolden[key] {
				t.Errorf("branch %s: digest %s, want %s", key, got, branchGolden[key])
			}
		}
	}
	for _, p := range LoadSuite() {
		for _, v := range []Variant{Train, Test} {
			h := sha256.New()
			if err := trace.WriteLoads(h, p.Generate(v, goldenEvents)); err != nil {
				t.Fatal(err)
			}
			key := p.Name + "/" + v.String()
			if got := hex.EncodeToString(h.Sum(nil)); got != loadGolden[key] {
				t.Errorf("load %s: digest %s, want %s", key, got, loadGolden[key])
			}
		}
	}
}
