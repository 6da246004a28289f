package resmgr

import (
	"fmt"
	"reflect"
	"testing"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// recordingObserver appends "tag method job" for every notification.
type recordingObserver struct {
	tag string
	log *[]string
}

func (r recordingObserver) note(method string, j job.ID) {
	*r.log = append(*r.log, fmt.Sprintf("%s %s %d", r.tag, method, j))
}

func (r recordingObserver) JobExpected(_ sim.Time, j *job.Job)                   { r.note("expected", j.ID) }
func (r recordingObserver) JobSubmitted(_ sim.Time, j *job.Job)                  { r.note("submitted", j.ID) }
func (r recordingObserver) JobStarted(_ sim.Time, j *job.Job)                    { r.note("started", j.ID) }
func (r recordingObserver) JobCompleted(_ sim.Time, j *job.Job)                  { r.note("completed", j.ID) }
func (r recordingObserver) JobHeld(_ sim.Time, j *job.Job)                       { r.note("held", j.ID) }
func (r recordingObserver) JobYielded(_ sim.Time, j *job.Job)                    { r.note("yielded", j.ID) }
func (r recordingObserver) JobReleased(_ sim.Time, j *job.Job, _ bool)           { r.note("released", j.ID) }
func (r recordingObserver) JobCancelled(_ sim.Time, j *job.Job)                  { r.note("cancelled", j.ID) }
func (r recordingObserver) PeerDecision(_ sim.Time, m string, id job.ID, _ bool) { r.note(m, id) }

// TestTeeDeliversEveryTransition: each of the nine notifications reaches
// every member of a Tee, in member order.
func TestTeeDeliversEveryTransition(t *testing.T) {
	var log []string
	tee := Tee{recordingObserver{"a", &log}, recordingObserver{"b", &log}}
	j := job.New(7, 1, 0, 10, 10)
	tee.JobExpected(0, j)
	tee.JobSubmitted(0, j)
	tee.JobHeld(0, j)
	tee.JobReleased(0, j, true)
	tee.JobYielded(0, j)
	tee.PeerDecision(0, "start_mate", j.ID, true)
	tee.JobStarted(0, j)
	tee.JobCompleted(0, j)
	tee.JobCancelled(0, j)
	var want []string
	for _, m := range []string{"expected", "submitted", "held", "released", "yielded", "start_mate", "started", "completed", "cancelled"} {
		want = append(want, "a "+m+" 7", "b "+m+" 7")
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("tee delivered\n %v\nwant\n %v", log, want)
	}
}
