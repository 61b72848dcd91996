// Durability primitives for the shard store: fd-level fsync of files and
// directories, the part of "crash-safe" that buffered streams and
// std::filesystem::rename cannot provide on their own.
//
// A sealed shard is durable only once (a) the temp file's bytes have
// reached the device *before* the atomic rename publishes the final name,
// and (b) the parent directory entry created by the rename has itself been
// synced. ShardWriter::seal follows exactly that order; these helpers keep
// the POSIX plumbing in one place and expose a test seam so the ordering
// is verifiable without pulling a power plug.
#pragma once

#include <functional>
#include <string>

namespace qrn::store {

/// What a sync request targets - used by the test hook to assert ordering.
enum class SyncKind {
    File,       ///< fsync of a regular file's contents + metadata
    Directory,  ///< fsync of a directory (publishes rename/create entries)
};

/// Flushes the file at `path` to stable storage (open + fsync + close).
/// Throws StoreError{Io} when the file cannot be opened or synced.
void sync_file(const std::string& path);

/// Flushes the directory at `path` so entries renamed or created inside it
/// survive a crash. Throws StoreError{Io} on failure.
void sync_directory(const std::string& path);

namespace detail {
/// Test seam: when set, invoked with (kind, path) before each real fsync.
/// Tests use it to record the sync order seal() performs and to inject
/// failures or delays (anything the hook throws propagates to the caller
/// before the fsync happens). It runs on whichever thread seals: for the
/// serve Service that is its sealer thread, so a hook that touches test
/// state must synchronize it. Pass nullptr to restore production
/// behaviour. Not thread-safe against concurrent store writes: set it
/// before the writer or Service exists and clear it after; tests only.
void set_sync_hook_for_test(std::function<void(SyncKind, const std::string&)> hook);
}  // namespace detail

}  // namespace qrn::store
