/// @file
/// C-compatible interface to cxlalloc, for applications that want a
/// malloc/free-shaped API (the paper's motivating KV stores and databases
/// are mostly C/C++ codebases).
///
/// Model: create a pod once, attach each (simulated) process, then *bind*
/// each worker thread. After binding, cxlalloc_malloc/cxlalloc_free operate
/// on the calling thread's context with no handles to pass around.
/// Offsets, not raw pointers, cross process boundaries (PC-S); use
/// cxlalloc_ptr to dereference locally (PC-T enforced in checked mode).

#pragma once

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct cxlalloc_pod cxlalloc_pod_t;
typedef struct cxlalloc_process cxlalloc_process_t;

/// Pod/heap creation options. Zero-initialize then override; any field
/// left 0 takes the library default.
typedef struct cxlalloc_options {
    uint32_t small_slabs;       /* 32 KiB slabs for 8 B-1 KiB blocks   */
    uint32_t large_slabs;       /* 512 KiB slabs for 1 KiB-512 KiB     */
    uint32_t huge_regions;      /* address regions for >512 KiB        */
    uint64_t huge_region_size;  /* bytes per huge region               */
    int coherence;              /* 0 full HWcc, 1 partial, 2 none/mCAS */
    int nonrecoverable;         /* 1 disables the redo-record protocol */
    int checked_mappings;       /* 1 enforces PC-T per access          */
} cxlalloc_options_t;

/// Creates a pod with one cxlalloc heap. NULL options = all defaults.
/// Returns NULL on invalid options.
cxlalloc_pod_t* cxlalloc_pod_create(const cxlalloc_options_t* options);

/// Destroys the pod. All processes must be detached and threads unbound.
void cxlalloc_pod_destroy(cxlalloc_pod_t* pod);

/// Attaches a sharing process (reservations, fault handler, metadata
/// mappings). Returns NULL when the pod's process limit is reached.
cxlalloc_process_t* cxlalloc_process_attach(cxlalloc_pod_t* pod);

/// Releases a process handle obtained from cxlalloc_process_attach. The
/// pod-side process state lives on (a real crashed process's heap memory
/// must stay reachable); only the handle is freed. All threads bound to
/// the process must be unbound first.
void cxlalloc_process_detach(cxlalloc_process_t* process);

/// Binds the CALLING thread to @p process: allocates a pod-global thread
/// slot and thread-local context. Returns the thread id (>0), or 0 when no
/// slots are free or the thread is already bound.
uint16_t cxlalloc_thread_bind(cxlalloc_process_t* process);

/// Releases the calling thread's slot (clean exit). Remote frees the
/// thread left pending (no-HWcc pods) land first.
void cxlalloc_thread_unbind(void);

/// Adopts crashed slot @p tid on the calling thread and runs recovery.
/// The calling thread must be unbound. Returns @p tid, or 0 on failure.
uint16_t cxlalloc_thread_adopt(cxlalloc_process_t* process, uint16_t tid);

/// Allocates @p size bytes from the calling thread's heap. Returns the
/// allocation's heap offset (stable across processes), or 0 on exhaustion.
uint64_t cxlalloc_malloc(size_t size);

/// Frees an allocation by offset (works for any thread/process).
void cxlalloc_free(uint64_t offset);

/// Resolves @p offset to a pointer in this process, valid for @p len
/// bytes. Never returns NULL for live heap offsets.
void* cxlalloc_ptr(uint64_t offset, size_t len);

/// Runs the huge heap's asynchronous reclamation pass for this thread.
void cxlalloc_maintain(void);

/// Heap statistics snapshot.
typedef struct cxlalloc_stats {
    uint64_t committed_bytes;  /* PSS analog                      */
    uint64_t hwcc_bytes;       /* coherent metadata footprint     */
    uint32_t small_slabs_used;
    uint32_t large_slabs_used;
    uint32_t huge_live;
} cxlalloc_stats_t;

/// Fills @p out from the calling thread's view. Returns 0 on success.
int cxlalloc_stats_get(cxlalloc_stats_t* out);

#ifdef __cplusplus
} /* extern "C" */
#endif
