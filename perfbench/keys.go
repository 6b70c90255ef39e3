package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"tcor/internal/serve"
	"tcor/internal/workload"
)

// simKey is one /v1/simulate request: a Table II alias under a hierarchy
// configuration, Tile Cache size and frame count (0 = the spec default).
type simKey struct {
	Alias  string
	Config string
	KB     int
	Frames int
}

func (k simKey) String() string {
	return fmt.Sprintf("%s/%s/%dKiB/%df", k.Alias, k.Config, k.KB, k.frames())
}

// frames is the frame count the request resolves to.
func (k simKey) frames() int {
	if k.Frames > 0 {
		return k.Frames
	}
	spec, err := workload.ByAlias(k.Alias)
	if err != nil {
		return 0
	}
	return spec.Frames
}

func (k simKey) request() serve.SimulateRequest {
	return serve.SimulateRequest{Benchmark: k.Alias, Config: k.Config, TileCacheKB: k.KB, Frames: k.Frames}
}

func (k simKey) body() []byte {
	b, err := json.Marshal(k.request())
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

var configNames = []string{serve.ConfigBaseline, serve.ConfigTCOR, serve.ConfigTCORNoL2}

// coldKeys draws n distinct keys from the serve-cold grid: every alias
// under every configuration at 32/64/128/256 KiB and 1 or 2 frames (240
// keys). The draw is stratified over the factors that set a simulation's
// cost. It goes in rounds of 20 keys, one per (alias, frames) scene;
// scene i's three rounds in a row use the configurations from the i-th
// onwards, and its sizes come in a seeded order. So 20 keys hold every
// scene once, 40 keys every scene twice under two configurations and 60
// keys every (scene, configuration) once.
//
// The seed draws only the sizes. The scene order within each round is
// the same for every seed: a scene's cost (70–900 ms) is set by its alias
// and frame count, while the configuration and size move it by about a
// tenth, so a seeded order would decide which heavy scenes arrive back to
// back and overlap, and the median latency would follow the order rather
// than the program.
func coldKeys(seed int64, n int) ([]simKey, error) {
	rng := rand.New(rand.NewSource(seed))
	order := rand.New(rand.NewSource(coldOrderSeed))
	type pair struct {
		alias  string
		frames int
		first  int     // the configuration of the pair's first round
		kbs    [][]int // per configuration: size order
	}
	sizes := []int{32, 64, 128, 256}
	var pairs []pair
	for _, alias := range workload.Aliases() {
		for _, frames := range []int{1, 2} {
			p := pair{alias: alias, frames: frames, first: len(pairs) % len(configNames)}
			for range configNames {
				p.kbs = append(p.kbs, rng.Perm(len(sizes)))
			}
			pairs = append(pairs, p)
		}
	}
	if total := len(pairs) * len(configNames) * len(sizes); n > total {
		return nil, fmt.Errorf("serve-cold: %d requests exceed the %d distinct keys", n, total)
	}
	out := make([]simKey, 0, n)
	for round := 0; len(out) < n; round++ {
		c, size := round%len(configNames), round/len(configNames)
		for _, pi := range order.Perm(len(pairs)) {
			if len(out) == n {
				break
			}
			p := pairs[pi]
			cfg := (p.first + c) % len(configNames)
			out = append(out, simKey{p.alias, configNames[cfg], sizes[p.kbs[cfg][size]], p.frames})
		}
	}
	return out, nil
}

// coldOrderSeed fixes the serve-cold scene order for every seed.
const coldOrderSeed = 1

// hitGrid is the 60-key paper grid the gateway-hot hit class draws from:
// every alias under every configuration at 64 and 128 KiB, spec frames.
func hitGrid() []simKey {
	var out []simKey
	for _, alias := range workload.Aliases() {
		for _, cfg := range configNames {
			for _, kb := range []int{64, 128} {
				out = append(out, simKey{Alias: alias, Config: cfg, KB: kb})
			}
		}
	}
	return out
}

// zipfS is the skew of the hit-class key popularity.
const zipfS = 1.1

// hitDraws draws n hit-class keys from the grid with Zipf popularity; the
// seed also decides which key is the most popular.
func hitDraws(seed int64, n int) []simKey {
	grid := hitGrid()
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(len(grid))
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(grid)-1))
	out := make([]simKey, n)
	for i := range out {
		out[i] = grid[rank[z.Uint64()]]
	}
	return out
}

// missKeys draws n distinct gateway-hot miss keys: single-frame runs (the
// hit grid uses the spec's two frames, so no miss key can be a warm one)
// under every configuration at 32/64/128/256 KiB — 120 keys. Aliases come
// round in a seeded order, so each appears n/10 times (give or take one)
// and the simulation work behind the miss stream is nearly the same for
// every seed.
func missKeys(seed int64, n int) ([]simKey, error) {
	aliases := workload.Aliases()
	rng := rand.New(rand.NewSource(seed ^ 0x6d697373))
	perAlias := make([][]simKey, len(aliases))
	for i, alias := range aliases {
		for _, cfg := range configNames {
			for _, kb := range []int{32, 64, 128, 256} {
				perAlias[i] = append(perAlias[i], simKey{alias, cfg, kb, 1})
			}
		}
		s := perAlias[i]
		rng.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
	}
	if n > len(aliases)*len(perAlias[0]) {
		return nil, fmt.Errorf("gateway-hot: %d misses exceed the %d distinct miss keys", n, len(aliases)*len(perAlias[0]))
	}
	order := rng.Perm(len(aliases))
	out := make([]simKey, 0, n)
	for i := 0; i < n; i++ {
		a := order[i%len(aliases)]
		out = append(out, perAlias[a][i/len(aliases)])
	}
	return out, nil
}
