/* Native kernel primitives over packed little-endian uint64 rows.
 *
 * This module implements the profiled-worst batched primitives of the
 * kernel ABI (see repro/kernels/base.py) as plain C loops:
 *
 *   intersect(rows, mask)                      -> joint row bytes
 *   intersect_count(rows, mask)                -> (joint bytes, supports)
 *   intersect_count_bounded(rows, mask, smin)  -> (joint bytes, supports)
 *   superset_max_support_bounded(rows, supports, mask, smin) -> int
 *   superset_rows(rows, mask)                  -> ascending row indices
 *   popcount_rows(rows)                        -> supports
 *
 * `rows` is any C-contiguous 2-D buffer of 8-byte items (the resident
 * PackedTable matrix exposes one through the buffer protocol), `mask`
 * the probe packed to the table width with int.to_bytes(..., "little").
 * No numpy headers are needed: the module consumes raw buffers and
 * returns bytes, and the Python wrapper (repro/kernels/native.py) wraps
 * them back into PackedTable rows.  AND, popcount and the containment
 * test are endian-agnostic on the packed byte layout, so interpreting
 * the little-endian rows as native uint64 words is exact everywhere.
 *
 * Bounded primitives honour the exact BELOW_BOUND sentinel contract:
 * a row whose true joint popcount is below smin reports support -1 and
 * a zeroed joint, whether or not the per-word early abort
 * (count + remaining_words * 64 < smin, arXiv:1901.07773) fired for it.
 *
 * The module also carries `Repository`, IsTa's prefix-tree repository
 * (Figures 1-4 of the paper) as struct-of-arrays nodes; see the comment
 * above its definition.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

/* Must equal repro.kernels.base.BELOW_BOUND (asserted at import time
 * by the Python wrapper via the BELOW_BOUND module constant). */
#define NATIVE_BELOW_BOUND (-1)

#if defined(__GNUC__) || defined(__clang__)
#define popcount64(x) ((int64_t)__builtin_popcountll((unsigned long long)(x)))
#else
static int64_t
popcount64(uint64_t v)
{
    v = v - ((v >> 1) & UINT64_C(0x5555555555555555));
    v = (v & UINT64_C(0x3333333333333333)) +
        ((v >> 2) & UINT64_C(0x3333333333333333));
    v = (v + (v >> 4)) & UINT64_C(0x0F0F0F0F0F0F0F0F);
    return (int64_t)((v * UINT64_C(0x0101010101010101)) >> 56);
}
#endif

typedef struct {
    Py_buffer view;
    Py_ssize_t n_rows;
    Py_ssize_t n_words;
    const uint64_t *data;
} rows_buffer;

static int
get_rows(PyObject *obj, rows_buffer *rows)
{
    if (PyObject_GetBuffer(obj, &rows->view, PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    if (rows->view.ndim != 2 || rows->view.itemsize != 8) {
        PyBuffer_Release(&rows->view);
        PyErr_SetString(PyExc_TypeError,
                        "rows must be a C-contiguous 2-D buffer of "
                        "8-byte words");
        return -1;
    }
    rows->n_rows = rows->view.shape[0];
    rows->n_words = rows->view.shape[1];
    rows->data = (const uint64_t *)rows->view.buf;
    return 0;
}

/* Copy the packed probe into an owned aligned word buffer (the bytes
 * object's internal pointer has no alignment guarantee in the buffer
 * protocol contract). */
static uint64_t *
get_mask(Py_buffer *mask_view, Py_ssize_t n_words)
{
    uint64_t *words;
    if (mask_view->len != n_words * 8) {
        PyErr_Format(PyExc_ValueError,
                     "mask must pack to the table width: expected %zd "
                     "bytes, got %zd", n_words * 8, mask_view->len);
        return NULL;
    }
    words = (uint64_t *)PyMem_Malloc((size_t)(n_words ? n_words : 1) * 8);
    if (words == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    memcpy(words, mask_view->buf, (size_t)n_words * 8);
    return words;
}

/* Indices of the nonzero words of a packed probe.  Only those words
 * can fail a containment test, and a served query of a few items has
 * one or two of them in rows of dozens of words. */
static Py_ssize_t *
nonzero_words(const uint64_t *mask, Py_ssize_t n_words, Py_ssize_t *count)
{
    Py_ssize_t w, n = 0;
    Py_ssize_t *words =
        (Py_ssize_t *)PyMem_Malloc((size_t)(n_words ? n_words : 1) *
                                   sizeof(Py_ssize_t));
    if (words == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (w = 0; w < n_words; w++) {
        if (mask[w])
            words[n++] = w;
    }
    *count = n;
    return words;
}

/* Whether `row` holds every bit of `mask`, testing only the probe's
 * nonzero words (see nonzero_words). */
static int
row_contains(const uint64_t *row, const uint64_t *mask,
             const Py_ssize_t *words, Py_ssize_t n_nonzero)
{
    Py_ssize_t j;
    for (j = 0; j < n_nonzero; j++) {
        Py_ssize_t w = words[j];
        if ((row[w] & mask[w]) != mask[w])
            return 0;
    }
    return 1;
}

static PyObject *
native_intersect(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rows_obj, *out = NULL;
    Py_buffer mask_view;
    rows_buffer rows;
    uint64_t *mask = NULL, *dst;
    Py_ssize_t i, w, n_words;

    if (!PyArg_ParseTuple(args, "Oy*:intersect", &rows_obj, &mask_view))
        return NULL;
    if (get_rows(rows_obj, &rows) < 0) {
        PyBuffer_Release(&mask_view);
        return NULL;
    }
    n_words = rows.n_words;
    mask = get_mask(&mask_view, n_words);
    if (mask == NULL)
        goto done;
    out = PyBytes_FromStringAndSize(NULL, rows.n_rows * n_words * 8);
    if (out == NULL)
        goto done;
    dst = (uint64_t *)PyBytes_AS_STRING(out);
    for (i = 0; i < rows.n_rows; i++) {
        const uint64_t *src = rows.data + i * n_words;
        uint64_t *row = dst + i * n_words;
        for (w = 0; w < n_words; w++)
            row[w] = src[w] & mask[w];
    }
done:
    PyMem_Free(mask);
    PyBuffer_Release(&rows.view);
    PyBuffer_Release(&mask_view);
    return out;
}

/* Shared body of intersect_count / intersect_count_bounded: smin is
 * LLONG_MIN-free — a bounded call passes the caller's smin, the
 * unbounded one passes 0, where no support can ever fall below the
 * bound and the sentinel branch is dead. */
static PyObject *
intersect_count_impl(PyObject *args, const char *signature, int bounded)
{
    PyObject *rows_obj, *out = NULL, *supports = NULL, *result = NULL;
    Py_buffer mask_view;
    rows_buffer rows;
    uint64_t *mask = NULL, *dst;
    long long smin = 0;
    Py_ssize_t i, w, n_words;

    if (bounded) {
        if (!PyArg_ParseTuple(args, signature, &rows_obj, &mask_view, &smin))
            return NULL;
    }
    else {
        if (!PyArg_ParseTuple(args, signature, &rows_obj, &mask_view))
            return NULL;
    }
    if (get_rows(rows_obj, &rows) < 0) {
        PyBuffer_Release(&mask_view);
        return NULL;
    }
    n_words = rows.n_words;
    mask = get_mask(&mask_view, n_words);
    if (mask == NULL)
        goto done;
    out = PyBytes_FromStringAndSize(NULL, rows.n_rows * n_words * 8);
    supports = PyList_New(rows.n_rows);
    if (out == NULL || supports == NULL)
        goto done;
    dst = (uint64_t *)PyBytes_AS_STRING(out);
    for (i = 0; i < rows.n_rows; i++) {
        const uint64_t *src = rows.data + i * n_words;
        uint64_t *row = dst + i * n_words;
        int64_t count = 0;
        PyObject *value;
        if (smin > 0) {
            /* Early-stopping rule: once the running count plus the
             * remaining-word upper bound cannot reach smin, the row is
             * settled — its tail words are never touched. */
            for (w = 0; w < n_words; w++) {
                uint64_t joint = src[w] & mask[w];
                row[w] = joint;
                count += popcount64(joint);
                if (count + (int64_t)(n_words - 1 - w) * 64 < smin)
                    break;
            }
            if (count < smin) {
                memset(row, 0, (size_t)n_words * 8);
                count = NATIVE_BELOW_BOUND;
            }
        }
        else {
            for (w = 0; w < n_words; w++) {
                uint64_t joint = src[w] & mask[w];
                row[w] = joint;
                count += popcount64(joint);
            }
        }
        value = PyLong_FromLongLong(count);
        if (value == NULL)
            goto done;
        PyList_SET_ITEM(supports, i, value);
    }
    result = PyTuple_Pack(2, out, supports);
done:
    Py_XDECREF(out);
    Py_XDECREF(supports);
    PyMem_Free(mask);
    PyBuffer_Release(&rows.view);
    PyBuffer_Release(&mask_view);
    return result;
}

static PyObject *
native_intersect_count(PyObject *Py_UNUSED(self), PyObject *args)
{
    return intersect_count_impl(args, "Oy*:intersect_count", 0);
}

static PyObject *
native_intersect_count_bounded(PyObject *Py_UNUSED(self), PyObject *args)
{
    return intersect_count_impl(args, "Oy*L:intersect_count_bounded", 1);
}

static PyObject *
native_superset_max_support_bounded(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rows_obj, *supports_obj, *fast = NULL, *result = NULL;
    Py_buffer mask_view;
    rows_buffer rows;
    uint64_t *mask = NULL;
    Py_ssize_t *words = NULL;
    long long smin, best = 0;
    Py_ssize_t i, n_words, n_nonzero;

    if (!PyArg_ParseTuple(args, "OOy*L:superset_max_support_bounded",
                          &rows_obj, &supports_obj, &mask_view, &smin))
        return NULL;
    if (get_rows(rows_obj, &rows) < 0) {
        PyBuffer_Release(&mask_view);
        return NULL;
    }
    n_words = rows.n_words;
    mask = get_mask(&mask_view, n_words);
    if (mask == NULL)
        goto done;
    words = nonzero_words(mask, n_words, &n_nonzero);
    if (words == NULL)
        goto done;
    fast = PySequence_Fast(supports_obj, "supports must be a sequence");
    if (fast == NULL)
        goto done;
    if (PySequence_Fast_GET_SIZE(fast) != rows.n_rows) {
        PyErr_Format(PyExc_ValueError,
                     "supports length %zd does not match %zd rows",
                     PySequence_Fast_GET_SIZE(fast), rows.n_rows);
        goto done;
    }
    for (i = 0; i < rows.n_rows; i++) {
        long long support =
            PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (support == -1 && PyErr_Occurred())
            goto done;
        /* The support prefilter is the early abort: a row below smin
         * (or below the best answer so far) never reaches the
         * containment test. */
        if (support < smin || support <= best)
            continue;
        if (row_contains(rows.data + i * n_words, mask, words, n_nonzero))
            best = support;
    }
    result = PyLong_FromLongLong(best);
done:
    Py_XDECREF(fast);
    PyMem_Free(words);
    PyMem_Free(mask);
    PyBuffer_Release(&rows.view);
    PyBuffer_Release(&mask_view);
    return result;
}

static PyObject *
native_superset_rows(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rows_obj, *out = NULL;
    Py_buffer mask_view;
    rows_buffer rows;
    uint64_t *mask = NULL;
    Py_ssize_t *words = NULL;
    Py_ssize_t i, n_words, n_nonzero;

    if (!PyArg_ParseTuple(args, "Oy*:superset_rows", &rows_obj, &mask_view))
        return NULL;
    if (get_rows(rows_obj, &rows) < 0) {
        PyBuffer_Release(&mask_view);
        return NULL;
    }
    n_words = rows.n_words;
    mask = get_mask(&mask_view, n_words);
    if (mask == NULL)
        goto done;
    words = nonzero_words(mask, n_words, &n_nonzero);
    if (words == NULL)
        goto done;
    out = PyList_New(0);
    if (out == NULL)
        goto done;
    for (i = 0; i < rows.n_rows; i++) {
        PyObject *index;
        if (!row_contains(rows.data + i * n_words, mask, words, n_nonzero))
            continue;
        index = PyLong_FromSsize_t(i);
        if (index == NULL || PyList_Append(out, index) < 0) {
            Py_XDECREF(index);
            Py_CLEAR(out);
            goto done;
        }
        Py_DECREF(index);
    }
done:
    PyMem_Free(words);
    PyMem_Free(mask);
    PyBuffer_Release(&rows.view);
    PyBuffer_Release(&mask_view);
    return out;
}

static PyObject *
native_popcount_rows(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rows_obj, *supports = NULL, *result = NULL;
    rows_buffer rows;
    Py_ssize_t i, w;

    if (!PyArg_ParseTuple(args, "O:popcount_rows", &rows_obj))
        return NULL;
    if (get_rows(rows_obj, &rows) < 0)
        return NULL;
    supports = PyList_New(rows.n_rows);
    if (supports == NULL)
        goto done;
    for (i = 0; i < rows.n_rows; i++) {
        const uint64_t *src = rows.data + i * rows.n_words;
        int64_t count = 0;
        PyObject *value;
        for (w = 0; w < rows.n_words; w++)
            count += popcount64(src[w]);
        value = PyLong_FromLongLong(count);
        if (value == NULL) {
            Py_CLEAR(supports);
            goto done;
        }
        PyList_SET_ITEM(supports, i, value);
    }
    result = supports;
    supports = NULL;
done:
    Py_XDECREF(supports);
    PyBuffer_Release(&rows.view);
    return result;
}

/* ------------------------------------------------------------------
 * Repository: IsTa's prefix tree as struct-of-arrays nodes
 *
 * Node i holds item[i], supp[i], step[i] (Figure 1's fields), child[i]
 * (first child) and sibling[i] (next sibling).  Siblings are kept in
 * descending item order, as in the paper's C original, so a sibling
 * scan stops at the first item below the one sought and the `imin`
 * test of Figure 2 ends a whole sibling group.  Node 0 is the root
 * (item -1).  Freed nodes (pruning splices and merges) are chained
 * through `sibling` on a free list and reused.  All arrays are PyMem
 * allocations, so tracemalloc-based memory budgets see them.
 *
 * born[i] is the step of the transaction whose intersection pass
 * created node i (0 for the transaction's own path nodes).  The
 * descent walks live sibling lists and skips such nodes as sources:
 * the Python recursion iterates snapshots that hold none of them, or
 * visits them only as self-intersections that change nothing (a node
 * created this step, met again under its own parent, re-adds the
 * weight it just subtracted).  Skipping them keeps `nodes_created`
 * equal to the recursion's and `intersections`/`support_updates` at
 * most the recursion's.
 *
 * The pass keeps a per-frame insertion hint: sources of one sibling
 * group arrive in descending item order, so their find-or-create
 * positions in the target's child list only move forward.
 * ------------------------------------------------------------------ */

#define NIL ((int32_t)-1)

typedef struct {
    int32_t cur;    /* next source node of this sibling group */
    int32_t target; /* insertion position (Figure 2's `ins`) */
    int32_t hint;   /* last node found/created under target, or NIL */
} isect_frame;

typedef struct {
    PyObject_HEAD
    int32_t *item;
    int64_t *supp;
    int64_t *step;
    int64_t *born;
    int32_t *child;
    int32_t *sibling;
    Py_ssize_t capacity;  /* slots allocated in every node array */
    Py_ssize_t used;      /* slots ever handed out (root included) */
    int32_t free_head;
    Py_ssize_t n_nodes;   /* live nodes, root excluded */
    int64_t cur_step;     /* 1-based index of the last transaction */
    Py_ssize_t depth_bound; /* longest transaction so far (path bound) */
    int32_t max_item;
    /* operation counts since the last drain() */
    long long visits, isects, created, updates;
    long long pruned, eliminated, merged, reports;
} RepositoryObject;

static int
repo_grow(RepositoryObject *r, Py_ssize_t want)
{
    Py_ssize_t cap = r->capacity ? r->capacity : 64;
    void *p;
    while (cap < want)
        cap *= 2;
    if (cap == r->capacity)
        return 0;
#define GROW(field, type)                                              \
    p = PyMem_Realloc(r->field, (size_t)cap * sizeof(type));           \
    if (p == NULL) {                                                   \
        PyErr_NoMemory();                                              \
        return -1;                                                     \
    }                                                                  \
    r->field = (type *)p;
    GROW(item, int32_t)
    GROW(supp, int64_t)
    GROW(step, int64_t)
    GROW(born, int64_t)
    GROW(child, int32_t)
    GROW(sibling, int32_t)
#undef GROW
    r->capacity = cap;
    return 0;
}

/* A fresh leaf; may move every node array (callers index, never keep
 * element pointers across this call). */
static int32_t
repo_new_node(RepositoryObject *r, int32_t item, int64_t supp, int64_t step,
              int64_t born)
{
    int32_t n;
    if (r->free_head != NIL) {
        n = r->free_head;
        r->free_head = r->sibling[n];
    }
    else {
        if (r->used >= INT32_MAX) {
            PyErr_SetString(PyExc_MemoryError,
                            "repository exceeds 2**31 nodes");
            return NIL;
        }
        if (r->used >= r->capacity && repo_grow(r, r->used + 1) < 0)
            return NIL;
        n = (int32_t)r->used++;
    }
    r->item[n] = item;
    r->supp[n] = supp;
    r->step[n] = step;
    r->born[n] = born;
    r->child[n] = NIL;
    r->sibling[n] = NIL;
    r->n_nodes++;
    if (item > r->max_item)
        r->max_item = item;
    return n;
}

static void
repo_free_node(RepositoryObject *r, int32_t n)
{
    r->item[n] = -2;
    r->child[n] = NIL;
    r->sibling[n] = r->free_head;
    r->free_head = n;
    r->n_nodes--;
}

static int
repo_init(RepositoryObject *r, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, ":Repository", kwlist))
        return -1;
    if (r->capacity == 0 && repo_grow(r, 64) < 0)
        return -1;
    r->used = 1;
    r->free_head = NIL;
    r->n_nodes = 0;
    r->cur_step = 0;
    r->depth_bound = 0;
    r->max_item = -1;
    r->item[0] = -1;
    r->supp[0] = 0;
    r->step[0] = 0;
    r->born[0] = 0;
    r->child[0] = NIL;
    r->sibling[0] = NIL;
    return 0;
}

static void
repo_dealloc(RepositoryObject *r)
{
    PyMem_Free(r->item);
    PyMem_Free(r->supp);
    PyMem_Free(r->step);
    PyMem_Free(r->born);
    PyMem_Free(r->child);
    PyMem_Free(r->sibling);
    Py_TYPE(r)->tp_free((PyObject *)r);
}

#define IN_MASK(bytes, n_bytes, it)                                    \
    ((Py_ssize_t)((it) >> 3) < (n_bytes) &&                            \
     (((bytes)[(it) >> 3] >> ((it) & 7)) & 1))

/* Add the transaction's own path; new nodes get support 0, which the
 * intersection pass then raises through the path's self-intersection. */
static int
repo_insert_path(RepositoryObject *r, const unsigned char *bytes,
                 Py_ssize_t n_bytes)
{
    int32_t node = 0;
    Py_ssize_t b;
    int bit;
    for (b = n_bytes - 1; b >= 0; b--) {
        for (bit = 7; bit >= 0; bit--) {
            int32_t it, prev = NIL, c;
            if (!((bytes[b] >> bit) & 1))
                continue;
            it = (int32_t)(b * 8 + bit);
            c = r->child[node];
            while (c != NIL && r->item[c] > it) {
                prev = c;
                c = r->sibling[c];
            }
            if (c == NIL || r->item[c] != it) {
                int32_t n = repo_new_node(r, it, 0, 0, 0);
                if (n == NIL)
                    return -1;
                r->sibling[n] = c;
                if (prev == NIL)
                    r->child[node] = n;
                else
                    r->sibling[prev] = n;
                r->created++;
                c = n;
            }
            node = c;
        }
    }
    return 0;
}

static int
poll_check(PyObject *check)
{
    PyObject *res;
    if (check == NULL)
        return 0;
    res = PyObject_CallNoArgs(check);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Figure 2's isect over the whole tree for one transaction, with the
 * step-flag maximum rule and weight w.  Explicit frames instead of C
 * recursion: paths are as long as the longest transaction. */
static int
repo_isect(RepositoryObject *r, const unsigned char *bytes,
           Py_ssize_t n_bytes, int64_t w, PyObject *check)
{
    const int64_t step = r->cur_step;
    int32_t imin = -1;
    Py_ssize_t b, sp = 0;
    isect_frame *frames;
    int status = -1;

    for (b = 0; b < n_bytes && imin < 0; b++) {
        int bit;
        for (bit = 0; bit < 8; bit++) {
            if ((bytes[b] >> bit) & 1) {
                imin = (int32_t)(b * 8 + bit);
                break;
            }
        }
    }
    /* One frame per tree level below the root, plus the root group. */
    frames = (isect_frame *)PyMem_Malloc(
        (size_t)(r->depth_bound + 2) * sizeof(isect_frame));
    if (frames == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    frames[0].cur = r->child[0];
    frames[0].target = 0;
    frames[0].hint = NIL;
    sp = 1;
    if (poll_check(check) < 0)
        goto done;
    while (sp > 0) {
        isect_frame *f = &frames[sp - 1];
        int32_t node = f->cur, it, target, descend;
        while (node != NIL && r->born[node] == step)
            node = r->sibling[node];
        if (node == NIL) {
            sp--;
            continue;
        }
        r->visits++;
        it = r->item[node];
        if (it < imin) {
            /* Descending siblings: this one and every later one hold
             * only items below the transaction's smallest. */
            sp--;
            continue;
        }
        f->cur = r->sibling[node];
        target = f->target;
        descend = it > imin && r->child[node] != NIL;
        if (IN_MASK(bytes, n_bytes, it)) {
            int32_t prev, c, existing;
            r->isects++;
            if (f->hint != NIL) {
                prev = f->hint;
                c = r->sibling[prev];
            }
            else {
                prev = NIL;
                c = r->child[target];
            }
            while (c != NIL && r->item[c] > it) {
                prev = c;
                c = r->sibling[c];
            }
            if (c != NIL && r->item[c] == it) {
                int64_t s = r->supp[c];
                int64_t source;
                existing = c;
                if (r->step[c] == step)
                    s -= w;
                source = existing == node ? s : r->supp[node];
                if (s < source)
                    s = source;
                r->supp[c] = s + w;
                r->step[c] = step;
                r->updates++;
            }
            else {
                existing = repo_new_node(r, it, r->supp[node] + w, step, step);
                if (existing == NIL)
                    goto done;
                r->sibling[existing] = c;
                if (prev == NIL)
                    r->child[target] = existing;
                else
                    r->sibling[prev] = existing;
                r->created++;
            }
            f->hint = existing;
            if (descend) {
                frames[sp].cur = r->child[node];
                frames[sp].target = existing;
                frames[sp].hint = NIL;
                sp++;
                if (poll_check(check) < 0)
                    goto done;
            }
        }
        else if (descend) {
            /* Item not in the transaction: descend with the insertion
             * position (and its hint: every deeper item is smaller)
             * unchanged. */
            frames[sp].cur = r->child[node];
            frames[sp].target = target;
            frames[sp].hint = f->hint;
            sp++;
            if (poll_check(check) < 0)
                goto done;
        }
    }
    status = 0;
done:
    PyMem_Free(frames);
    return status;
}

static PyObject *
repo_add(RepositoryObject *r, PyObject *args)
{
    Py_buffer mask;
    long long weight;
    PyObject *check, *result = NULL;
    Py_ssize_t b, size = 0;

    if (!PyArg_ParseTuple(args, "y*LO:add", &mask, &weight, &check))
        return NULL;
    if (weight < 1) {
        PyErr_Format(PyExc_ValueError, "weight must be at least 1, got %lld",
                     weight);
        goto done;
    }
    if (mask.len > INT32_MAX / 8) {
        PyErr_SetString(PyExc_ValueError,
                        "item codes must fit in 31 bits");
        goto done;
    }
    r->cur_step++;
    for (b = 0; b < mask.len; b++)
        size += popcount64(((const unsigned char *)mask.buf)[b]);
    if (size == 0) {
        result = Py_None;
        Py_INCREF(result);
        goto done;
    }
    if (size > r->depth_bound)
        r->depth_bound = size;
    if (repo_insert_path(r, (const unsigned char *)mask.buf, mask.len) < 0)
        goto done;
    if (repo_isect(r, (const unsigned char *)mask.buf, mask.len,
                   (int64_t)weight, check == Py_None ? NULL : check) < 0)
        goto done;
    result = Py_None;
    Py_INCREF(result);
done:
    PyBuffer_Release(&mask);
    return result;
}

typedef struct {
    int32_t *pairs;
    Py_ssize_t len, cap;
} pair_stack;

static int
pair_push(pair_stack *s, int32_t into, int32_t from)
{
    if (s->len + 2 > s->cap) {
        Py_ssize_t cap = s->cap ? s->cap * 2 : 64;
        int32_t *p = (int32_t *)PyMem_Realloc(s->pairs, (size_t)cap * 4);
        if (p == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        s->pairs = p;
        s->cap = cap;
    }
    s->pairs[s->len++] = into;
    s->pairs[s->len++] = from;
    return 0;
}

/* Move the detached node g into parent's child list, or, when parent
 * already holds g's item, queue the pair for merging.  *cursor is a
 * node of that list whose item exceeds g's (or NIL for the head): the
 * callers hand over children in descending order, so the scan resumes
 * where the last one stopped. */
static int
link_or_queue(RepositoryObject *r, int32_t parent, int32_t g,
              int32_t *cursor, pair_stack *queue)
{
    int32_t it = r->item[g], prev = *cursor;
    int32_t c = prev == NIL ? r->child[parent] : r->sibling[prev];
    while (c != NIL && r->item[c] > it) {
        prev = c;
        c = r->sibling[c];
    }
    if (c != NIL && r->item[c] == it) {
        *cursor = c;
        return pair_push(queue, c, g);
    }
    r->sibling[g] = c;
    if (prev == NIL)
        r->child[parent] = g;
    else
        r->sibling[prev] = g;
    *cursor = g;
    return 0;
}

/* _merge_nodes: fold `from` into `into` (same item) — support maximum,
 * children union — iteratively, since subtrees can be as deep as the
 * longest transaction. */
static int
repo_merge(RepositoryObject *r, pair_stack *queue)
{
    while (queue->len > 0) {
        int32_t from = queue->pairs[--queue->len];
        int32_t into = queue->pairs[--queue->len];
        int32_t g, cursor = NIL;
        r->merged++;
        if (r->supp[from] > r->supp[into]) {
            r->supp[into] = r->supp[from];
            r->step[into] = r->step[from];
        }
        g = r->child[from];
        while (g != NIL) {
            int32_t next = r->sibling[g];
            if (link_or_queue(r, into, g, &cursor, queue) < 0)
                return -1;
            g = next;
        }
        repo_free_node(r, from);
    }
    return 0;
}

/* _prune_tree: splice out every node whose support plus its item's
 * remaining occurrences stays below smin; its children merge into its
 * parent (support maximum on collisions).  Spliced-in children land
 * after the splice point of the sibling list (their items are smaller)
 * and are examined in the same sweep, which therefore reaches the
 * Python fixpoint loop's result. */
static PyObject *
repo_prune(RepositoryObject *r, PyObject *args)
{
    PyObject *remaining_obj, *fast = NULL, *result = NULL;
    long long smin;
    int64_t *remaining = NULL;
    int32_t *stack = NULL;
    pair_stack queue = {NULL, 0, 0};
    Py_ssize_t i, n_remaining, sp = 0;

    if (!PyArg_ParseTuple(args, "OL:prune", &remaining_obj, &smin))
        return NULL;
    fast = PySequence_Fast(remaining_obj, "remaining must be a sequence");
    if (fast == NULL)
        return NULL;
    n_remaining = PySequence_Fast_GET_SIZE(fast);
    remaining = (int64_t *)PyMem_Malloc(
        (size_t)(n_remaining ? n_remaining : 1) * sizeof(int64_t));
    stack = (int32_t *)PyMem_Malloc((size_t)(r->n_nodes + 1) * 4);
    if (remaining == NULL || stack == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < n_remaining; i++) {
        remaining[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (remaining[i] == -1 && PyErr_Occurred())
            goto done;
    }
    if (r->max_item >= n_remaining) {
        PyErr_Format(PyExc_IndexError,
                     "remaining holds %zd items, the tree has item %d",
                     n_remaining, r->max_item);
        goto done;
    }
    stack[sp++] = 0;
    while (sp > 0) {
        int32_t parent = stack[--sp];
        int32_t prev = NIL, cur = r->child[parent];
        while (cur != NIL) {
            int32_t g, cursor;
            if (r->supp[cur] + remaining[r->item[cur]] >= smin) {
                prev = cur;
                cur = r->sibling[cur];
                continue;
            }
            r->eliminated++;
            r->pruned++;
            if (prev == NIL)
                r->child[parent] = r->sibling[cur];
            else
                r->sibling[prev] = r->sibling[cur];
            g = r->child[cur];
            cursor = prev;
            while (g != NIL) {
                int32_t next = r->sibling[g];
                if (link_or_queue(r, parent, g, &cursor, &queue) < 0 ||
                    repo_merge(r, &queue) < 0)
                    goto done;
                g = next;
            }
            repo_free_node(r, cur);
            cur = prev == NIL ? r->child[parent] : r->sibling[prev];
        }
        for (cur = r->child[parent]; cur != NIL; cur = r->sibling[cur])
            stack[sp++] = cur;
    }
    result = Py_None;
    Py_INCREF(result);
done:
    PyMem_Free(queue.pairs);
    PyMem_Free(stack);
    PyMem_Free(remaining);
    Py_DECREF(fast);
    return result;
}

static PyObject *
mask_to_long(const unsigned char *bytes, Py_ssize_t n_bytes)
{
#if PY_VERSION_HEX >= 0x030D0000
    return PyLong_FromUnsignedNativeBytes(
        bytes, (size_t)n_bytes,
        Py_ASNATIVEBYTES_LITTLE_ENDIAN | Py_ASNATIVEBYTES_UNSIGNED_BUFFER);
#else
    return _PyLong_FromByteArray(bytes, (size_t)n_bytes, 1, 0);
#endif
}

/* Figure 4: a node is reported iff its support reaches smin and no
 * child carries the same support.  Returns [(mask, support), ...]. */
static PyObject *
repo_report(RepositoryObject *r, PyObject *args)
{
    long long smin;
    PyObject *out = NULL;
    int32_t *stack = NULL, *depths = NULL, *path = NULL;
    unsigned char *bits = NULL;
    Py_ssize_t sp = 0, n_bytes, depth = 0;
    int32_t c;

    if (!PyArg_ParseTuple(args, "L:report", &smin))
        return NULL;
    if (smin < 1) {
        PyErr_Format(PyExc_ValueError, "smin must be at least 1, got %lld",
                     smin);
        return NULL;
    }
    n_bytes = r->max_item / 8 + 1;
    stack = (int32_t *)PyMem_Malloc((size_t)(r->n_nodes + 1) * 4);
    depths = (int32_t *)PyMem_Malloc((size_t)(r->n_nodes + 1) * 4);
    path = (int32_t *)PyMem_Malloc((size_t)(r->depth_bound + 1) * 4);
    bits = (unsigned char *)PyMem_Calloc((size_t)n_bytes, 1);
    out = PyList_New(0);
    if (stack == NULL || depths == NULL || path == NULL || bits == NULL) {
        PyErr_NoMemory();
        Py_CLEAR(out);
    }
    if (out == NULL)
        goto done;
    for (c = r->child[0]; c != NIL; c = r->sibling[c]) {
        stack[sp] = c;
        depths[sp++] = 0;
    }
    while (sp > 0) {
        int32_t node = stack[--sp], d = depths[sp], it = r->item[node];
        int64_t supp = r->supp[node], max_child = 0;
        r->visits++;
        while (depth > d) {
            int32_t old = path[--depth];
            bits[old >> 3] &= (unsigned char)~(1u << (old & 7));
        }
        path[depth++] = it;
        bits[it >> 3] |= (unsigned char)(1u << (it & 7));
        for (c = r->child[node]; c != NIL; c = r->sibling[c]) {
            if (r->supp[c] > max_child)
                max_child = r->supp[c];
            stack[sp] = c;
            depths[sp++] = d + 1;
        }
        if (supp >= smin && supp > max_child) {
            /* path[0] is the path's largest item: it sizes the mask. */
            PyObject *mask = mask_to_long(bits, path[0] / 8 + 1);
            PyObject *count = mask == NULL ? NULL : PyLong_FromLongLong(supp);
            PyObject *pair = count == NULL ? NULL : PyTuple_Pack(2, mask, count);
            int failed = pair == NULL || PyList_Append(out, pair) < 0;
            Py_XDECREF(mask);
            Py_XDECREF(count);
            Py_XDECREF(pair);
            if (failed) {
                Py_CLEAR(out);
                goto done;
            }
            r->reports++;
        }
    }
done:
    PyMem_Free(bits);
    PyMem_Free(path);
    PyMem_Free(depths);
    PyMem_Free(stack);
    return out;
}

static PyObject *
repo_drain(RepositoryObject *r, PyObject *Py_UNUSED(ignored))
{
    PyObject *counts = Py_BuildValue(
        "(LLLLLLLL)", r->visits, r->isects, r->created, r->updates,
        r->pruned, r->eliminated, r->merged, r->reports);
    if (counts != NULL) {
        r->visits = r->isects = r->created = r->updates = 0;
        r->pruned = r->eliminated = r->merged = r->reports = 0;
    }
    return counts;
}

static PyObject *
repo_get_n_nodes(RepositoryObject *r, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(r->n_nodes);
}

static PyObject *
repo_get_step(RepositoryObject *r, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(r->cur_step);
}

static PyMethodDef repo_methods[] = {
    {"add", (PyCFunction)repo_add, METH_VARARGS,
     "add(mask_bytes, weight, check) -> None: insert the transaction's "
     "path and run Figure 2's isect over the tree; check (a callable or "
     "None) is polled at the head of every sibling group"},
    {"prune", (PyCFunction)repo_prune, METH_VARARGS,
     "prune(remaining, smin) -> None: one item-elimination splice pass"},
    {"report", (PyCFunction)repo_report, METH_VARARGS,
     "report(smin) -> [(mask, support)] of the closed frequent sets"},
    {"drain", (PyCFunction)repo_drain, METH_NOARGS,
     "drain() -> (node_visits, intersections, nodes_created, "
     "support_updates, nodes_pruned, items_eliminated, nodes_merged, "
     "reports) since the last drain, then reset them"},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef repo_getset[] = {
    {"n_nodes", (getter)repo_get_n_nodes, NULL,
     "number of nodes excluding the root", NULL},
    {"step", (getter)repo_get_step, NULL,
     "1-based index of the last processed transaction", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject RepositoryType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernels._native.Repository",
    .tp_basicsize = sizeof(RepositoryObject),
    .tp_dealloc = (destructor)repo_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "IsTa's prefix-tree repository as struct-of-arrays nodes.",
    .tp_methods = repo_methods,
    .tp_getset = repo_getset,
    .tp_init = (initproc)repo_init,
    .tp_new = PyType_GenericNew,
};

static PyMethodDef native_methods[] = {
    {"intersect", native_intersect, METH_VARARGS,
     "intersect(rows, mask) -> bytes of every row AND the packed mask"},
    {"intersect_count", native_intersect_count, METH_VARARGS,
     "intersect_count(rows, mask) -> (joint bytes, per-row popcounts)"},
    {"intersect_count_bounded", native_intersect_count_bounded, METH_VARARGS,
     "intersect_count_bounded(rows, mask, smin) -> (joint bytes, "
     "supports with the BELOW_BOUND sentinel)"},
    {"superset_max_support_bounded", native_superset_max_support_bounded,
     METH_VARARGS,
     "superset_max_support_bounded(rows, supports, mask, smin) -> "
     "largest support >= smin over rows containing mask (0 if none)"},
    {"superset_rows", native_superset_rows, METH_VARARGS,
     "superset_rows(rows, mask) -> ascending indices of the rows "
     "containing mask"},
    {"popcount_rows", native_popcount_rows, METH_VARARGS,
     "popcount_rows(rows) -> per-row popcounts"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.kernels._native",
    "C implementations of the profiled-worst kernel primitives "
    "(consumed through repro.kernels.native.NativeBackend).",
    -1,
    native_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    PyObject *module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "BELOW_BOUND",
                                NATIVE_BELOW_BOUND) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    if (PyType_Ready(&RepositoryType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&RepositoryType);
    if (PyModule_AddObject(module, "Repository",
                           (PyObject *)&RepositoryType) < 0) {
        Py_DECREF(&RepositoryType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
