// Portable thread-safety annotations (clang -Wthread-safety).
//
// Under clang these expand to the capability attributes that drive the
// static thread-safety analysis: a field tagged PRISM_GUARDED_BY(mu_) can
// only be touched while mu_ is held, a method tagged PRISM_REQUIRES(mu_)
// can only be called with mu_ held, and the analysis proves it at compile
// time. Under any other compiler (g++ builds this tree too) they expand to
// nothing, so the annotations are pure documentation there.
//
// The annotated primitives live in src/common/mutex.h; the conventions —
// which fields to tag, how `…Locked()` helpers are named — are documented
// in docs/ARCHITECTURE.md ("Static analysis & concurrency contracts").
#ifndef PRISM_SRC_COMMON_ANNOTATIONS_H_
#define PRISM_SRC_COMMON_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define PRISM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PRISM_THREAD_ANNOTATION(x)  // no-op
#endif

// On a class: instances are lockable capabilities (prism::Mutex).
#define PRISM_CAPABILITY(x) PRISM_THREAD_ANNOTATION(capability(x))

// On a class: RAII object that acquires a capability in its constructor and
// releases it in its destructor (prism::MutexLock).
#define PRISM_SCOPED_CAPABILITY PRISM_THREAD_ANNOTATION(scoped_lockable)

// On a field: may only be read or written while the named mutex is held.
#define PRISM_GUARDED_BY(x) PRISM_THREAD_ANNOTATION(guarded_by(x))

// On a pointer field: the pointed-to data (not the pointer itself) is
// protected by the named mutex.
#define PRISM_PT_GUARDED_BY(x) PRISM_THREAD_ANNOTATION(pt_guarded_by(x))

// On a function: callers must hold the named mutex(es). The convention for
// private helpers that assume the lock is a `…Locked()` suffix plus this
// annotation.
#define PRISM_REQUIRES(...) PRISM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// On a function: acquires the named mutex(es) and returns with them held.
#define PRISM_ACQUIRE(...) PRISM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

// On a function: releases the named mutex(es).
#define PRISM_RELEASE(...) PRISM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// On a function: callers must NOT hold the named mutex(es) — documents
// self-deadlock hazards (e.g. a callback invoked without the lock).
#define PRISM_EXCLUDES(...) PRISM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// On a function: returns a reference to the named capability without
// acquiring it (prism::Mutex::native()).
#define PRISM_RETURN_CAPABILITY(x) PRISM_THREAD_ANNOTATION(lock_returned(x))

// Opts a function out of the analysis. Reserved for genuine analysis
// boundaries (code the analysis cannot model, such as lock ownership handed
// across an ABI seam); every use carries a comment saying why. Grep for it
// in review — new uses should be rare to never.
#define PRISM_NO_TSA PRISM_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // PRISM_SRC_COMMON_ANNOTATIONS_H_
