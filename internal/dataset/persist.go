package dataset

import (
	"fmt"
	"io"

	"ganc/internal/persist"
	"ganc/internal/types"
)

// Dataset persistence: a Dataset serializes to a gob envelope holding its
// name and identifier key tables, followed by the three parallel rating
// columns as fixed-width columns (persist.WriteColumns), and is rebuilt on
// load by re-interning the key tables and re-running the index construction,
// so the loaded dataset is bit-identical to the saved one without storing
// any derived structure.

// Snapshot versions: version 1 held the rating columns as gob fields of the
// envelope, version 2 (the one written) holds them as columns after it. Both
// are read; anything else fails loudly instead of mis-decoding.
const (
	datasetSnapshotVersion = 2
	datasetGobColumns      = 1
)

// datasetSnapshot is the gob envelope of a Dataset. Users, Items and Values
// are read from version 1 snapshots and never written.
type datasetSnapshot struct {
	Version  int
	Name     string
	UserKeys []string
	ItemKeys []string
	Users    []types.UserID
	Items    []types.ItemID
	Values   []float64
}

// EncodeSnapshot writes the dataset to w: its envelope, then the user, item
// and value columns. The key tables are only the keys this version covers:
// its interners are shared with, and grown by, its Extend successors.
func (d *Dataset) EncodeSnapshot(w io.Writer) error {
	snap := datasetSnapshot{
		Version:  datasetSnapshotVersion,
		Name:     d.name,
		UserKeys: d.users.Keys()[:d.NumUsers()],
		ItemKeys: d.items.Keys()[:d.NumItems()],
	}
	users := make([]int32, len(d.ratings))
	items := make([]int32, len(d.ratings))
	values := make([]float64, len(d.ratings))
	for k, r := range d.ratings {
		users[k], items[k], values[k] = int32(r.User), int32(r.Item), r.Value
	}
	err := persist.WriteColumns(w, &snap, func(c *persist.ColumnWriter) {
		c.Int32s(users)
		c.Int32s(items)
		c.Float64s(values)
	})
	if err != nil {
		return fmt.Errorf("dataset: encode snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot reads a dataset previously written by EncodeSnapshot, in
// either version.
func DecodeSnapshot(data []byte) (*Dataset, error) {
	var snap datasetSnapshot
	cols, err := persist.ReadColumns(data, &snap)
	if err != nil {
		return nil, fmt.Errorf("dataset: decode snapshot: %w", err)
	}
	var users, items []int32
	values := snap.Values
	switch snap.Version {
	case datasetGobColumns:
		users, items = make([]int32, len(snap.Users)), make([]int32, len(snap.Items))
		for k, u := range snap.Users {
			users[k] = int32(u)
		}
		for k, i := range snap.Items {
			items[k] = int32(i)
		}
	case datasetSnapshotVersion:
		users, items, values = cols.Int32s(), cols.Int32s(), cols.Float64s()
	default:
		return nil, fmt.Errorf("dataset: unsupported dataset snapshot version %d (this build reads versions %d and %d)",
			snap.Version, datasetGobColumns, datasetSnapshotVersion)
	}
	if err := cols.Close(); err != nil {
		return nil, fmt.Errorf("dataset: decode snapshot: %w", err)
	}
	if len(users) != len(items) || len(users) != len(values) {
		return nil, fmt.Errorf("dataset: corrupt snapshot: rating columns have mismatched lengths %d/%d/%d",
			len(users), len(items), len(values))
	}
	userKeys := types.NewInternerFromKeys(snap.UserKeys)
	itemKeys := types.NewInternerFromKeys(snap.ItemKeys)
	numUsers, numItems := int32(userKeys.Len()), int32(itemKeys.Len())
	ratings := make([]types.Rating, len(users))
	for k := range ratings {
		if users[k] < 0 || users[k] >= numUsers {
			return nil, fmt.Errorf("dataset: corrupt snapshot: rating %d references user %d outside [0,%d)", k, users[k], numUsers)
		}
		if items[k] < 0 || items[k] >= numItems {
			return nil, fmt.Errorf("dataset: corrupt snapshot: rating %d references item %d outside [0,%d)", k, items[k], numItems)
		}
		ratings[k] = types.Rating{User: types.UserID(users[k]), Item: types.ItemID(items[k]), Value: values[k]}
	}
	d := &Dataset{
		name:    snap.Name,
		ratings: ratings,
		users:   userKeys,
		items:   itemKeys,
	}
	d.buildIndexes()
	return d, nil
}
