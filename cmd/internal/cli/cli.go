// Package cli is what the ivm and ivmd commands share: opening their
// views from the -store, -program and -data flags.
package cli

import (
	"fmt"
	"os"

	"ivm"
)

// OpenViews materializes the program at programPath over the facts at
// dataPath or, with a storeDir, opens the store there, which they seed
// only while it is empty: once the store holds a checkpoint it is the
// single source of truth and they are ignored. info is the store's
// recovery report, zero without a store.
func OpenViews(storeDir, programPath, dataPath string, opts []ivm.Option) (v *ivm.Views, info ivm.RecoveryInfo, err error) {
	materialize := func() (*ivm.Views, error) {
		if programPath == "" {
			return nil, fmt.Errorf("-program is required (or a -store that holds a checkpoint)")
		}
		programSrc, err := os.ReadFile(programPath)
		if err != nil {
			return nil, err
		}
		db := ivm.NewDatabase()
		if dataPath != "" {
			data, err := os.ReadFile(dataPath)
			if err != nil {
				return nil, err
			}
			if err := db.Load(string(data)); err != nil {
				return nil, err
			}
		}
		return db.Materialize(string(programSrc), opts...)
	}
	if storeDir == "" {
		v, err = materialize()
		return v, info, err
	}
	return ivm.OpenStore(storeDir, materialize, opts...)
}
