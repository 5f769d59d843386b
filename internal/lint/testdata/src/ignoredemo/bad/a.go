// Fixture for malformed suppression directives: each one is itself a
// diagnostic (from the "actoplint" pseudo-analyzer) and suppresses
// nothing. Checked programmatically in ignore_test.go because the
// findings land on the directive's own comment line.
package bad

func f() int {
	//actoplint:ignore nosuchanalyzer the name does not exist
	x := 1
	//actoplint:ignore turnblock
	x++
	//actoplint:ignore metriclabel an analyzer that left the suite is an unknown name
	x++
	//actoplint:ignore
	x++
	//actoplint:ignore actoplint directive errors must not be suppressible
	return x
}
