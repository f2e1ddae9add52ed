package core

// MaxSyncRetries exports the retry bound for the sync tests.
const MaxSyncRetries = maxSyncRetries
