package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// expected.json holds the virtual times the seed tree produced for every
// operation a workload can issue. A run counts any difference as a failed
// operation. Regenerate it only for a change that is meant to move
// simulated time:
//
//	perfbench --record-expected expected.json
//
//go:embed expected.json
var expectedJSON []byte

// expectedAnswers is the schema of expected.json.
type expectedAnswers struct {
	// PaperSweep maps a sweep cell key (cellKey) to its virtual time in ps.
	PaperSweep map[string]int64 `json:"paper_sweep"`
	// AppMPIOps maps an app-mpi phase key (mpiPhase.key) to the virtual
	// time of each of its repetitions, in ps.
	AppMPIOps map[string][]int64 `json:"app_mpi_ops"`
	// AppMPIModel is the fixed reference program's makespan and resource
	// counts.
	AppMPIModel modelReading `json:"app_mpi_model"`
}

var expected = func() expectedAnswers {
	var e expectedAnswers
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic(fmt.Sprintf("perfbench: expected.json: %v", err))
	}
	return e
}()

// recordExpected recomputes every expected answer on fresh state and writes
// the file.
func recordExpected(path string) error {
	var e expectedAnswers
	var err error
	if e.PaperSweep, err = recordPaperSweep(); err != nil {
		return err
	}
	if e.AppMPIOps, err = recordAppMPIOps(); err != nil {
		return err
	}
	if e.AppMPIModel, err = runModelProgram(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
