// Energy sweep: the Fig. 21 trade-off on one workload — shrink the
// baseline sparse directory from 2x to 1/16x and watch leakage fall but
// execution time (and with it total energy) rise, then compare the tiny
// directory points that get both. Uses the suite's CACTI-style analytic
// energy model.
package main

import (
	"fmt"
	"os"

	"tinydir"
)

func main() {
	suite := tinydir.NewSuite(tinydir.ScaleExperiment)
	suite.Progress = os.Stderr
	fig, err := suite.FigureByID("21")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fig.Fprint(os.Stdout)
	fmt.Println()
	fmt.Println("Reading: each column is one directory configuration; values are")
	fmt.Println("normalized to the tiny 1/256x point (DSTRA+gNRU+DynSpill).")
	fmt.Println("The paper's Fig. 21 shape: baseline energy first falls as the")
	fmt.Println("directory shrinks, then rises once lost performance dominates,")
	fmt.Println("while the tiny points keep both cycles and energy low.")
}
