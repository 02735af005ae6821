package envtest

import (
	"math/rand"
	"regexp"
	"testing"

	"progmp/internal/runtime"
)

// TestCorpusNamesEveryProperty: the generated programs the fuzzers
// start from name every property of runtime's tables and
// HAS_WINDOW_FOR, so each is exercised before any fuzzing starts. The
// corpus is the program seeds 0–63 of FuzzBackendsAgree (0–31),
// FuzzQuiescence and FuzzStepBound, and FuzzAnalyze's 32 programs
// drawn from seed 7.
func TestCorpusNamesEveryProperty(t *testing.T) {
	var corpus []string
	for seed := int64(0); seed < 64; seed++ {
		corpus = append(corpus, GenProgram(rand.New(rand.NewSource(seed))))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 32; i++ {
		corpus = append(corpus, GenProgram(rng))
	}
	named := map[string]bool{}
	member := regexp.MustCompile(`\.([A-Z_]+)`)
	for _, src := range corpus {
		for _, m := range member.FindAllStringSubmatch(src, -1) {
			named[m[1]] = true
		}
	}
	want := []string{"HAS_WINDOW_FOR"}
	for p := 0; p < runtime.NumSubflowIntProps; p++ {
		want = append(want, runtime.SubflowIntProp(p).String())
	}
	for p := 0; p < runtime.NumSubflowBoolProps; p++ {
		want = append(want, runtime.SubflowBoolProp(p).String())
	}
	for p := 0; p < runtime.NumPacketIntProps; p++ {
		want = append(want, runtime.PacketIntProp(p).String())
	}
	for _, name := range want {
		if !named[name] {
			t.Errorf("no program of the fixed seeds names %s", name)
		}
	}
}

// TestRandomEnvSetsEveryProperty: across a few seeds RandomEnv gives
// every subflow and packet property a value other than zero, so a
// program reading one is not always reading the zero the builder left.
func TestRandomEnvSetsEveryProperty(t *testing.T) {
	var sbfInts [runtime.NumSubflowIntProps]bool
	var sbfBools [runtime.NumSubflowBoolProps]bool
	var pktInts [runtime.NumPacketIntProps]bool
	for seed := int64(0); seed < 64; seed++ {
		env := RandomEnv(rand.New(rand.NewSource(seed)))
		for _, s := range env.SubflowViews {
			for p, v := range s.Ints {
				sbfInts[p] = sbfInts[p] || v != 0
			}
			for p, v := range s.Bools {
				sbfBools[p] = sbfBools[p] || v
			}
		}
		for _, q := range []runtime.QueueID{runtime.QueueSend, runtime.QueueUnacked, runtime.QueueReinject} {
			queue := env.Queue(q)
			for i := 0; i < queue.Len(); i++ {
				for p, v := range queue.At(i).Ints {
					pktInts[p] = pktInts[p] || v != 0
				}
			}
		}
	}
	for p, set := range sbfInts {
		if !set {
			t.Errorf("subflow property %s is always 0", runtime.SubflowIntProp(p))
		}
	}
	for p, set := range sbfBools {
		if !set {
			t.Errorf("subflow property %s is always false", runtime.SubflowBoolProp(p))
		}
	}
	for p, set := range pktInts {
		if !set {
			t.Errorf("packet property %s is always 0", runtime.PacketIntProp(p))
		}
	}
}
