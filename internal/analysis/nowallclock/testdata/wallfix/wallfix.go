// Package wallfix exercises the nowallclock analyzer: wall-clock reads,
// global random state, environment probes, and map formatting in a
// deterministic package.
//
//multicube:deterministic
package wallfix

import (
	"fmt"
	"math/rand"
	"os"
	"time"
)

func clock() time.Duration {
	start := time.Now()      // want `time\.Now in a deterministic package`
	return time.Since(start) // want `time\.Since in a deterministic package`
}

func sleepy() {
	time.Sleep(time.Millisecond) // want `time\.Sleep`
}

func roll() int {
	return rand.Intn(6) // want `global rand\.Intn in a deterministic package`
}

func seeded() uint64 {
	r := rand.New(rand.NewSource(42)) // explicit seeded source: allowed
	return r.Uint64()
}

func env() string {
	v := os.Getenv("HOME") // want `os\.Getenv`
	return v
}

func render(m map[int]string) string {
	return fmt.Sprintf("%v", m) // want `formatting a map with fmt\.Sprintf`
}

func renderSlice(xs []string) string {
	return fmt.Sprintf("%v", xs) // slices format deterministically
}

func duration() time.Duration {
	return 5 * time.Millisecond // the time package's types are fine
}
