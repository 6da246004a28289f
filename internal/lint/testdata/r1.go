// R1 fixtures: map iteration order leaking into order-sensitive
// operations. Each `// want` comment names the rule that must fire on
// that line; lines without one must stay clean.
package fixture

import (
	"fmt"
	"sort"

	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/sim"
)

func mapRangePrint(counts map[string]int) {
	for name, n := range counts { // want "R1"
		fmt.Printf("%s %d\n", name, n)
	}
}

func mapRangeSchedule(eng *sim.Engine, delays map[int]sim.Duration) {
	for id, d := range delays { // want "R1"
		_ = id
		eng.After(d, sim.PrioritySchedule, func(now sim.Time) {})
	}
}

func mapRangeJournal(store *journal.Store, rec *journal.Recorder, byID map[job.ID]*job.Job) error {
	for id := range byID { // want "R1"
		if err := store.Append(&journal.Entry{Op: journal.OpCancel, Job: id}); err != nil {
			return err
		}
	}
	for _, j := range byID { // want "R1"
		rec.JobSubmitted(0, j)
	}
	for range byID {
		rec.Detach() // not a record: clean
	}
	return nil
}

// Collect, sort, then iterate the slice: the sanctioned shape. The
// collection loop ranges the map but reaches nothing order-sensitive.
func mapRangeSorted(counts map[string]int) {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Println(name, counts[name])
	}
}
