package experiments

import (
	"os"
	"testing"

	"actop/internal/testutil"
)

// TestMain fails the package if any test leaves a goroutine running.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyNoLeaks(m.Run))
}
