#pragma once
/*
 * Clang Thread Safety Analysis annotations + annotated lock types.
 *
 * Every mutex in the repo is a quac::Mutex and every guarded field
 * carries QUAC_GUARDED_BY(mutex); helpers that assume a lock is held
 * declare QUAC_REQUIRES(mutex).  Under Clang the annotations compile
 * to __attribute__((...)) and `-Wthread-safety -Werror=thread-safety`
 * (the CI `clang-thread-safety` job) turns every lock-discipline
 * violation into a build break.  Under GCC and other compilers the
 * macros expand to nothing and the wrappers behave exactly like the
 * std types they hold.
 *
 * Contributor rule: new mutexes must ship annotated.  Declare the
 * guarded fields with QUAC_GUARDED_BY, use MutexLock (never a naked
 * std::lock_guard on a quac::Mutex), and give `*Locked` helpers a
 * QUAC_REQUIRES clause.  tools/lint_repo.py rejects raw std::mutex in
 * src/service and src/net.
 *
 * Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
 */

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define QUAC_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define QUAC_THREAD_ANNOTATION__(x)
#endif

/* A type that acts as a capability (lock). */
#define QUAC_CAPABILITY(x) QUAC_THREAD_ANNOTATION__(capability(x))

/* RAII type that acquires a capability in its constructor and
 * releases it in its destructor. */
#define QUAC_SCOPED_CAPABILITY QUAC_THREAD_ANNOTATION__(scoped_lockable)

/* Field may only be accessed while holding the given capability. */
#define QUAC_GUARDED_BY(x) QUAC_THREAD_ANNOTATION__(guarded_by(x))

/* Pointer field whose pointee is protected by the capability. */
#define QUAC_PT_GUARDED_BY(x) QUAC_THREAD_ANNOTATION__(pt_guarded_by(x))

/* Function acquires/releases the capability (it must not be held on
 * entry / must be held on entry respectively). */
#define QUAC_ACQUIRE(...) \
    QUAC_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define QUAC_RELEASE(...) \
    QUAC_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define QUAC_TRY_ACQUIRE(...) \
    QUAC_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/* Caller must hold the capability when calling the function. */
#define QUAC_REQUIRES(...) \
    QUAC_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/* Caller must NOT hold the capability (deadlock prevention). */
#define QUAC_EXCLUDES(...) \
    QUAC_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/* Document lock-ordering constraints between mutexes. */
#define QUAC_ACQUIRED_BEFORE(...) \
    QUAC_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define QUAC_ACQUIRED_AFTER(...) \
    QUAC_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/* Assert at runtime that the capability is held (trusted by the
 * analysis). */
#define QUAC_ASSERT_CAPABILITY(x) \
    QUAC_THREAD_ANNOTATION__(assert_capability(x))

/* Function returns a reference to the given capability. */
#define QUAC_RETURN_CAPABILITY(x) \
    QUAC_THREAD_ANNOTATION__(lock_returned(x))

/* Escape hatch.  Policy (enforced by tools/lint_repo.py): only the
 * lock-free ring internals may use it, and every use carries a
 * one-line justification comment.  Currently zero uses exist. */
#define QUAC_NO_THREAD_SAFETY_ANALYSIS \
    QUAC_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace quac {

/*
 * Annotated std::mutex.  Identical layout and cost; the CAPABILITY
 * attribute is what lets Clang track which lock protects which field.
 */
class QUAC_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() QUAC_ACQUIRE() { mu_.lock(); }
    void unlock() QUAC_RELEASE() { mu_.unlock(); }
    bool try_lock() QUAC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

    /* For interop with std wait primitives inside this header only. */
    std::mutex &native() { return mu_; }

private:
    std::mutex mu_;
};

/*
 * Scoped lock for Mutex (the MutexLocker pattern from the Clang
 * docs).  Supports temporary manual unlock()/lock() so code can drop
 * a lock across a blocking call and re-acquire it, with the analysis
 * tracking the capability the whole way.
 */
class QUAC_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex &m) QUAC_ACQUIRE(m) : mu_(m), held_(true)
    {
        mu_.lock();
    }

    ~MutexLock() QUAC_RELEASE()
    {
        if (held_)
            mu_.unlock();
    }

    /* Temporarily release the mutex mid-scope. */
    void unlock() QUAC_RELEASE()
    {
        mu_.unlock();
        held_ = false;
    }

    /* Re-acquire after a manual unlock(). */
    void lock() QUAC_ACQUIRE()
    {
        mu_.lock();
        held_ = true;
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

private:
    Mutex &mu_;
    bool held_;
};

/*
 * Condition variable usable with Mutex.  Only predicate-free waits are
 * exposed: predicate lambdas cannot carry REQUIRES clauses, so callers
 * re-check their (guarded) predicate in a loop around wait()/waitFor()
 * instead, which the analysis can follow.
 */
class CondVar {
public:
    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

    /* Atomically releases `m`, waits for a notify (or a spurious
     * wakeup), and re-acquires `m` before returning. */
    void wait(Mutex &m) QUAC_REQUIRES(m)
    {
        LockRef ref{m};
        cv_.wait(ref);
    }

    /* Atomically releases `m`, waits up to `timeout` (or a notify),
     * and re-acquires `m` before returning. */
    template <class Rep, class Period>
    void waitFor(Mutex &m,
                 const std::chrono::duration<Rep, Period> &timeout)
        QUAC_REQUIRES(m)
    {
        LockRef ref{m};
        cv_.wait_for(ref, timeout);
    }

private:
    /* BasicLockable adapter so condition_variable_any can unlock and
     * re-lock the annotated mutex.  The ACQUIRE/RELEASE annotations
     * keep the analysis's view of `m` consistent across the wait. */
    struct LockRef {
        Mutex &m;
        void lock() QUAC_ACQUIRE(m) { m.lock(); }
        void unlock() QUAC_RELEASE(m) { m.unlock(); }
    };

    std::condition_variable_any cv_;
};

} // namespace quac
