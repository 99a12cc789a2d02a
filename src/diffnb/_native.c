/* diffnb's compiled loops: the training sweep's in-order pass and the window check of scoring.
 *
 * diffnb.native compiles this file into a shared library and loads it with
 * ctypes.PyDLL, so the functions run holding the interpreter lock and may
 * use the Python C API. They read numpy arrays through the buffer protocol.
 *
 * diffnb_scan is TrainState._scan in boosting.py as one loop. It calls the
 * exp and log callables it is handed (numpy's ufuncs) on preallocated
 * contiguous arrays of K and M values, so every transcendental bit comes
 * from the same numpy loop, on the same lengths, as the numpy pass. Every
 * other operation is one IEEE operation in the numpy pass's order; built
 * with -ffp-contract=off, none is fused.
 *
 * diffnb_score is the window check of density.likelihood_logs. It only
 * compares and copies: each part is one of two table entries, chosen by
 * comparisons, so it is the numpy check's part bit for bit.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

/* boosting._SAFE_LOG and boosting._TINY, the smallest positive normal double */
#define SAFE_LOG 690.0
#define TINY 2.2250738585072014e-308

/* One argument buffer: its name for messages, whether it is written, whether it holds int64. */
struct buffer_spec {
    const char *name;
    int writable, integral;
};

static void
release_buffers(Py_buffer *views, Py_ssize_t count)
{
    while (count > 0)
        PyBuffer_Release(&views[--count]);
}

/* Acquire ``count`` C-contiguous buffers of 8-byte items of the kinds ``specs`` name.
 *
 * Stores each buffer's item count in ``len``; returns 0, or -1 with the
 * Python error set and no buffer held. ``function`` prefixes messages.
 */
static int
get_buffers(const char *function, PyObject *const *objects, const struct buffer_spec *specs,
            Py_ssize_t count, Py_buffer *views, Py_ssize_t *len)
{
    for (Py_ssize_t i = 0; i < count; i++) {
        int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (specs[i].writable ? PyBUF_WRITABLE : 0);
        if (PyObject_GetBuffer(objects[i], &views[i], flags) < 0) {
            release_buffers(views, i);
            return -1;
        }
        const char *format = views[i].format ? views[i].format : "B";
        char kind = format[strlen(format) - 1];
        int ok = views[i].itemsize == 8 && (specs[i].integral ? (kind == 'l' || kind == 'q') : kind == 'd');
        if (!ok) {
            PyErr_Format(PyExc_TypeError, "%s: %s must hold %s", function, specs[i].name,
                         specs[i].integral ? "int64" : "float64");
            release_buffers(views, i + 1);
            return -1;
        }
        len[i] = views[i].len / 8;
    }
    return 0;
}

enum { SCORES, WEIGHTS, LOGW, LABELS, CELLS, STARTS, MEMBERS, PATCH, ROW_IN, ROW_OUT, CELL_IN, CELL_OUT, N_SCAN };

static const struct buffer_spec scan_buffers[N_SCAN] = {
    {"scores", 1, 0}, {"weights", 1, 0}, {"logw", 1, 0}, {"labels", 0, 1},
    {"cells", 0, 1}, {"starts", 0, 1}, {"members", 0, 1}, {"patch", 1, 0},
    {"row_in", 1, 0}, {"row_out", 1, 0}, {"cell_in", 1, 0}, {"cell_out", 1, 0},
};

/* numpy's argmax of one row: the first NaN, else the first of equal maxima */
static Py_ssize_t
argmax(const double *row, Py_ssize_t k)
{
    double top = row[0];
    Py_ssize_t best = 0;
    if (top != top)
        return 0;
    for (Py_ssize_t j = 1; j < k; j++) {
        if (!(row[j] <= top)) {
            top = row[j];
            best = j;
            if (top != top)
                break;
        }
    }
    return best;
}

/* ``fn(in, out)``; 0, or -1 with the Python error set */
static int
call_into(PyObject *fn, PyObject *in, PyObject *out)
{
    PyObject *result = PyObject_CallFunctionObjArgs(fn, in, out, NULL);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* One in-order pass over the rows; returns the miss count, or -1 with the Python error set.
 *
 * ``scores`` is the (n, K) running log-score table, ``weights`` and
 * ``logw`` the (K, C) weight and log-weight tables of C cells per class,
 * ``labels`` (n,) and ``cells`` the (n, M) flat cell indices. The rows in
 * cell c are ``members[starts[c]:starts[c + 1]]``, ascending: the index
 * that TrainState.start derives from the cells, and the numpy pass reads
 * too. ``patch``
 * holds n zeros and is left so; ``row_in`` and ``row_out`` hold K values,
 * ``cell_in`` and ``cell_out`` M. The caller checks that every cell index,
 * label and member is in range; this checks lengths, item types and
 * contiguity.
 */
Py_ssize_t
diffnb_scan(PyObject *scores_obj, PyObject *weights_obj, PyObject *logw_obj,
            PyObject *labels_obj, PyObject *cells_obj, PyObject *starts_obj,
            PyObject *members_obj, PyObject *patch_obj, PyObject *row_in_obj,
            PyObject *row_out_obj, PyObject *cell_in_obj, PyObject *cell_out_obj,
            PyObject *exp_fn, PyObject *log_fn, double alpha)
{
    PyObject *const objects[N_SCAN] = {
        scores_obj, weights_obj, logw_obj, labels_obj, cells_obj, starts_obj,
        members_obj, patch_obj, row_in_obj, row_out_obj, cell_in_obj, cell_out_obj,
    };
    Py_buffer views[N_SCAN];
    Py_ssize_t len[N_SCAN];
    Py_ssize_t misses = -1;
    if (get_buffers("sweep", objects, scan_buffers, N_SCAN, views, len) < 0)
        return -1;
    const Py_ssize_t n = len[LABELS], k = len[ROW_IN], m = len[CELL_IN];
    const Py_ssize_t c = k ? len[WEIGHTS] / k : 0;
    const int64_t *starts = views[STARTS].buf;
    if (k < 1 || len[SCORES] != n * k || len[CELLS] != n * m || len[WEIGHTS] != k * c
        || len[LOGW] != k * c || len[STARTS] != c + 1 || len[PATCH] != n
        || len[ROW_OUT] != k || len[CELL_OUT] != m || len[MEMBERS] != starts[c]) {
        PyErr_SetString(PyExc_ValueError, "sweep: array lengths disagree");
        goto done;
    }

    double *scores = views[SCORES].buf, *weights = views[WEIGHTS].buf, *logw = views[LOGW].buf;
    double *patch = views[PATCH].buf, *row_in = views[ROW_IN].buf, *row_out = views[ROW_OUT].buf;
    double *cell_in = views[CELL_IN].buf, *cell_out = views[CELL_OUT].buf;
    const int64_t *labels = views[LABELS].buf, *cells = views[CELLS].buf;
    const int64_t *members = views[MEMBERS].buf;

    Py_ssize_t count = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        double *row = scores + i * k;
        const Py_ssize_t label = (Py_ssize_t)labels[i];
        if (argmax(row, k) == label)
            continue;
        /* a pending Ctrl-C or other signal handler runs here, between misses */
        if (PyErr_CheckSignals() < 0)
            goto done;
        count++;

        /* the row's scores: max by '>', shifted when it reaches 690, exp, floor */
        double top = row[0];
        for (Py_ssize_t j = 1; j < k; j++)
            if (row[j] > top)
                top = row[j];
        if (fabs(top) < SAFE_LOG)
            memcpy(row_in, row, k * sizeof(double));
        else
            for (Py_ssize_t j = 0; j < k; j++)
                row_in[j] = row[j] - top;
        if (call_into(exp_fn, row_in_obj, row_out_obj) < 0)
            goto done;
        for (Py_ssize_t j = 0; j < k; j++)
            if (TINY > row_out[j])
                row_out[j] = TINY;

        /* the winner's score, the row's largest, and the step */
        double best = row_out[0];
        for (Py_ssize_t j = 1; j < k; j++)
            if (row_out[j] > best)
                best = row_out[j];
        const double delta = alpha * (1.0 - row_out[label] / best);
        /* a rounding collapse in exp() can hand a log-domain miss the argmax;
           its ratio is then 1, a zero step, not a boost */
        if (!(delta > 0.0))
            continue;

        /* the boost: raise the label's M weights, then their logs */
        const int64_t *row_cells = cells + i * m;
        double *class_weights = weights + label * c, *class_logw = logw + label * c;
        for (Py_ssize_t j = 0; j < m; j++) {
            const double boosted = class_weights[row_cells[j]] + delta;
            class_weights[row_cells[j]] = boosted;
            cell_in[j] = boosted;
        }
        if (call_into(log_fn, cell_in_obj, cell_out_obj) < 0)
            goto done;
        for (Py_ssize_t j = 0; j < m; j++) {
            const int64_t cell = row_cells[j];
            const double amount = cell_out[j] - class_logw[cell];
            class_logw[cell] = cell_out[j];
            /* the patch: each row's increments summed from 0.0 in attribute order */
            for (int64_t p = starts[cell]; p < starts[cell + 1]; p++)
                patch[members[p]] += amount;
        }
        /* then added to every row of the label's column, as numpy's column add
           does: adding a zero patch turns a -0.0 score into 0.0 */
        for (Py_ssize_t r = 0; r < n; r++) {
            scores[r * k + label] += patch[r];
            patch[r] = 0.0;
        }
    }
    misses = count;

done:
    release_buffers(views, N_SCAN);
    return misses;
}


/* Whether any of a row's m values lies below ``lo`` or above ``hi``, a cell's window.
 *
 * A NaN compares false, so it violates nothing, as in numpy. The scan stops
 * at the first value outside: on the train-heavy test file (10k x 20, K=3)
 * the check took 12 ms, a branch-free scan of all M 19 ms.
 */
static inline int
outside_window(const double *row, const double *lo, const double *hi, Py_ssize_t m)
{
    for (Py_ssize_t j = 0; j < m; j++)
        if (row[j] < lo[j] || row[j] > hi[j])
            return 1;
    return 0;
}

enum { VALUES, ROW_CELLS, LO, HI, LOG_BASE, LOG_GATED, PARTS, N_SCORE };

static const struct buffer_spec score_buffers[N_SCORE] = {
    {"values", 0, 0}, {"cells", 0, 1}, {"window_lo", 0, 0}, {"window_hi", 0, 0},
    {"log_base", 0, 0}, {"log_gated", 0, 0}, {"parts", 1, 0},
};

/* The window check and the choice of each part; 0, or -1 with the Python error set.
 *
 * ``values`` is the (n, M) value matrix and ``cells`` the (n, S) flat cells
 * of the S scored attributes. ``window_lo`` and ``window_hi`` are the
 * (K, C, M) windows of the C flat cells of each of the ``k`` classes, and
 * ``log_base`` and ``log_gated`` the (K, C) logs of each cell's plain and
 * gated likelihood. For each row i, scored attribute t and class c, part
 * (c, i, t) of the (K, n, S) ``parts`` is ``log_gated`` of the row's cell
 * if any of the row's M values lies below the cell's lo or above its hi,
 * else ``log_base``: a NaN compares false, so it violates nothing, as in
 * numpy. Lengths, item types, contiguity and every cell index are checked.
 */
int
diffnb_score(PyObject *values_obj, PyObject *cells_obj, PyObject *lo_obj, PyObject *hi_obj,
             PyObject *log_base_obj, PyObject *log_gated_obj, PyObject *parts_obj,
             Py_ssize_t k, Py_ssize_t m)
{
    PyObject *const objects[N_SCORE] = {
        values_obj, cells_obj, lo_obj, hi_obj, log_base_obj, log_gated_obj, parts_obj,
    };
    Py_buffer views[N_SCORE];
    Py_ssize_t len[N_SCORE];
    int status = -1;
    if (k < 1 || m < 1) {
        PyErr_SetString(PyExc_ValueError, "score: k and m must be >= 1");
        return -1;
    }
    if (get_buffers("score", objects, score_buffers, N_SCORE, views, len) < 0)
        return -1;
    const Py_ssize_t n = len[VALUES] / m, c = len[LOG_BASE] / k;
    const Py_ssize_t s = n ? len[ROW_CELLS] / n : 0;
    if (len[VALUES] != n * m || len[ROW_CELLS] != n * s || len[LOG_BASE] != k * c
        || len[LOG_GATED] != k * c || len[LO] != k * c * m || len[HI] != k * c * m
        || len[PARTS] != k * n * s) {
        PyErr_SetString(PyExc_ValueError, "score: array lengths disagree");
        goto done;
    }

    const double *values = views[VALUES].buf, *lo = views[LO].buf, *hi = views[HI].buf;
    const double *log_base = views[LOG_BASE].buf, *log_gated = views[LOG_GATED].buf;
    const int64_t *cells = views[ROW_CELLS].buf;
    double *parts = views[PARTS].buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        const double *row = values + i * m;
        for (Py_ssize_t t = 0; t < s; t++) {
            const int64_t cell = cells[i * s + t];
            if (cell < 0 || cell >= c) {
                PyErr_SetString(PyExc_ValueError, "score: a cell index lies outside the tables");
                goto done;
            }
            for (Py_ssize_t kk = 0; kk < k; kk++) {
                const Py_ssize_t at = kk * c + cell;
                const double *cell_lo = lo + at * m, *cell_hi = hi + at * m;
                parts[(kk * n + i) * s + t] = outside_window(row, cell_lo, cell_hi, m) ? log_gated[at] : log_base[at];
            }
        }
    }
    status = 0;

done:
    release_buffers(views, N_SCORE);
    return status;
}


/* numpy's pairwise sum of n doubles, the order of ``np.add.reduce`` over a contiguous axis.
 *
 * Below 8 terms a plain running sum from -0.0; up to 128, eight running
 * sums over every eighth term, combined as a tree, and the terms past the
 * last multiple of 8 added after; above 128, the two halves (the first a
 * multiple of 8 long) summed apart and added. This is the summation-order
 * rule of numpy's float64 add loop (numpy 2.4.6); the tests compare its
 * every branch with numpy's own sums.
 */
static double
pairwise_sum(const double *a, Py_ssize_t n)
{
    if (n < 8) {
        double sum = -0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            sum += a[i];
        return sum;
    }
    if (n <= 128) {
        double r[8];
        Py_ssize_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            sum += a[i];
        return sum;
    }
    Py_ssize_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

enum {
    L_VALUES, L_GRID_LO, L_GRID_HI, L_WIDTH, L_TOP, L_OFFSETS, L_WINDOW_LO, L_WINDOW_HI,
    L_LOG_BASE, L_LOG_GATED, L_LOGW, L_SCORES, N_LOG_SCORES
};

static const struct buffer_spec log_score_buffers[N_LOG_SCORES] = {
    {"values", 0, 0}, {"grid_lo", 0, 0}, {"grid_hi", 0, 0}, {"width", 0, 0}, {"top", 0, 0},
    {"offsets", 0, 1}, {"window_lo", 0, 0}, {"window_hi", 0, 0}, {"log_base", 0, 0},
    {"log_gated", 0, 0}, {"logw", 0, 0}, {"scores", 1, 0},
};

/* Weighted log scores of a value matrix; 0, 1 if a value is NaN, or -1 with the Python error set.
 *
 * ``arrays`` is a tuple of the 12 arrays this reads and writes, in the
 * order below: ctypes converts each argument apart, and twelve of them
 * cost about 2 us a call, a third of scoring one row.
 * - ``values``, the (n, M) value matrix;
 * - ``grid_lo``, ``grid_hi``, ``width`` and ``top``, a BinGrid's (M,)
 *   arrays, and ``offsets``, the (M,) flat cell offsets of ScoringTables;
 * - ``window_lo``, ``window_hi``, ``log_base`` and ``log_gated`` as
 *   diffnb_score reads them, for C flat cells per class;
 * - ``logw``, the model's cell-major (C, K) log-weights;
 * - ``scores``, the (n, K) result.
 *
 * Per row this is density.likelihood_logs, the sum of its parts and
 * boosting.weighted_log_scores, in their order of operations:
 * - each value's bin as BinGrid.bins takes it: clamped into [lo, hi]
 *   (numpy's clip, which may keep either zero where a value and a bound
 *   are zeros of opposite signs; no bin changes), less lo, over the
 *   width, held at top and truncated; plus its attribute's offset;
 * - each class's M parts, chosen by the window check diffnb_score runs;
 * - their sum as ``parts.sum(axis=2)`` takes it: 0.0 plus numpy's pairwise
 *   sum of the M parts, which lie contiguous in the (K, n, M) parts;
 * - the cells' log-weights summed from 0.0 one attribute after another,
 *   as numpy sums the (n, M, K) gather over its middle axis, added last.
 *
 * A NaN value has no bin: the call stops and returns 1, and the caller
 * takes the rows through BinGrid.bins, which refuses the value by name.
 * Lengths, item types, contiguity and every cell index are checked.
 */
int
diffnb_log_scores(PyObject *arrays, Py_ssize_t k, Py_ssize_t m)
{
    Py_buffer views[N_LOG_SCORES];
    Py_ssize_t len[N_LOG_SCORES];
    int status = -1;
    double *work = NULL;
    if (!PyTuple_Check(arrays) || PyTuple_GET_SIZE(arrays) != N_LOG_SCORES) {
        PyErr_Format(PyExc_TypeError, "log scores: arrays must be a tuple of %d arrays", N_LOG_SCORES);
        return -1;
    }
    if (k < 1 || m < 1) {
        PyErr_SetString(PyExc_ValueError, "log scores: k and m must be >= 1");
        return -1;
    }
    if (get_buffers("log scores", PySequence_Fast_ITEMS(arrays), log_score_buffers, N_LOG_SCORES,
                    views, len) < 0)
        return -1;
    const Py_ssize_t n = len[L_VALUES] / m, c = len[L_LOG_BASE] / k;
    if (len[L_VALUES] != n * m || len[L_GRID_LO] != m || len[L_GRID_HI] != m || len[L_WIDTH] != m
        || len[L_TOP] != m || len[L_OFFSETS] != m || len[L_LOG_BASE] != k * c
        || len[L_LOG_GATED] != k * c || len[L_WINDOW_LO] != k * c * m
        || len[L_WINDOW_HI] != k * c * m || len[L_LOGW] != c * k || len[L_SCORES] != n * k) {
        PyErr_SetString(PyExc_ValueError, "log scores: array lengths disagree");
        goto done;
    }
    /* one row's K x M parts, then its M cells */
    work = PyMem_Malloc((k * m + m) * sizeof(double));
    if (work == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    double *parts = work;
    int64_t *cells = (int64_t *)(work + k * m);

    const double *values = views[L_VALUES].buf, *grid_lo = views[L_GRID_LO].buf;
    const double *grid_hi = views[L_GRID_HI].buf, *width = views[L_WIDTH].buf, *top = views[L_TOP].buf;
    const int64_t *offsets = views[L_OFFSETS].buf;
    const double *lo = views[L_WINDOW_LO].buf, *hi = views[L_WINDOW_HI].buf;
    const double *log_base = views[L_LOG_BASE].buf, *log_gated = views[L_LOG_GATED].buf;
    const double *logw = views[L_LOGW].buf;
    double *scores = views[L_SCORES].buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        const double *row = values + i * m;
        for (Py_ssize_t j = 0; j < m; j++) {
            const double v = row[j];
            if (v != v) {
                status = 1;
                goto done;
            }
            double clamped = v < grid_lo[j] ? grid_lo[j] : v;
            clamped = clamped > grid_hi[j] ? grid_hi[j] : clamped;
            double raw = (clamped - grid_lo[j]) / width[j];
            raw = raw > top[j] ? top[j] : raw;
            const int64_t cell = offsets[j] + (int64_t)raw;
            if (cell < 0 || cell >= c) {
                PyErr_SetString(PyExc_ValueError, "log scores: a cell index lies outside the tables");
                goto done;
            }
            cells[j] = cell;
        }
        double *out = scores + i * k;
        for (Py_ssize_t kk = 0; kk < k; kk++) {
            double *class_parts = parts + kk * m;
            for (Py_ssize_t j = 0; j < m; j++) {
                const Py_ssize_t at = kk * c + cells[j];
                class_parts[j] = outside_window(row, lo + at * m, hi + at * m, m) ? log_gated[at] : log_base[at];
            }
            out[kk] = 0.0 + pairwise_sum(class_parts, m);
        }
        for (Py_ssize_t kk = 0; kk < k; kk++) {
            double weight = 0.0;
            for (Py_ssize_t j = 0; j < m; j++)
                weight += logw[cells[j] * k + kk];
            out[kk] += weight;
        }
    }
    status = 0;

done:
    PyMem_Free(work);
    release_buffers(views, N_LOG_SCORES);
    return status;
}
