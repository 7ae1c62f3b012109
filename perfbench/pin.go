package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// printPins runs every workload's operations once and prints the digests
// pins.go holds, as Go source on standard output.
func printPins(e *env) error {
	suite := newPaperSuite()
	fmt.Println("var paperPins = map[string]string{")
	for _, a := range paperArtifacts {
		v, err := a.gen(suite)
		if err != nil {
			return err
		}
		d, err := digestOf(v)
		if err != nil {
			return err
		}
		fmt.Printf("\t%q: %q,\n", a.name, d)
	}
	fmt.Println("}")

	inst, err := setUpCampaign(e)
	if err != nil {
		return err
	}
	c := inst.(*campaignBench)
	p, err := c.runPass(&tally{}, nil)
	c.close()
	if err != nil {
		return err
	}
	sum := sha256.Sum256(p.stream)
	fmt.Printf("\nconst campaignPin = %q\n\n", hex.EncodeToString(sum[:]))

	inst, err = setUpServe(e)
	if err != nil {
		return err
	}
	s := inst.(*serveBench)
	defer s.close()
	fmt.Println("var servePins = map[string]string{")
	for _, req := range s.base {
		req.FaultBias = epochBias(-1)
		_, body, err := s.do(req)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(body)
		fmt.Printf("\t%q: %q,\n", baseKey(req), hex.EncodeToString(sum[:]))
	}
	fmt.Println("}")
	return nil
}
