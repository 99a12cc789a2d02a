/* diffnb's compiled loops: the training sweep's in-order pass, the window check, the scoring passes and the block parse.
 *
 * diffnb.native compiles this file into a shared library and loads it with
 * ctypes.PyDLL, so the functions are called holding the interpreter lock
 * and may use the Python C API. They read numpy arrays through the buffer
 * protocol. diffnb_scan and diffnb_score, the two passes a search trial
 * runs, release the lock around their loops, so trials on other threads
 * run at once; they take it back before they set a Python error.
 *
 * exp and log are numpy's own float64 loops, called by function pointer.
 * A ufunc object holds, per type signature, the inner loop that a call of
 * np.exp or np.log dispatches to (numpy fills its table at import, with
 * the loop built for this CPU's features). diffnb_bind looks up each
 * ufunc's NPY_DOUBLE -> NPY_DOUBLE entry once, and call_loop calls it as
 * the ufunc calls it on contiguous arrays: one call over the whole length,
 * unit strides, an output apart from the input. So every transcendental
 * bit is the one numpy's call would give, on any CPU, and no Python call
 * is made inside a pass. A loop diffnb owned would replace exactly these
 * two pointers.
 *
 * diffnb_scan is TrainState._scan in boosting.py as one loop. Every
 * operation but exp and log is one IEEE operation in the numpy pass's
 * order; built with -ffp-contract=off, none is fused.
 *
 * diffnb_score is the window check of density.likelihood_logs. It only
 * compares and copies: each part is one of two table entries, chosen by
 * comparisons, so it is the numpy check's part bit for bit.
 *
 * diffnb_log_scores takes a value matrix to a model's weighted log scores,
 * and diffnb_posterior one row to its posterior, winner and tie.
 *
 * diffnb_parse_block is dataset._encode_block for a block of ASCII lines
 * of one field count. Its numbers are float()'s bits: Clinger's exact
 * fast path where it applies, and PyOS_string_to_double, the function
 * float() calls, everywhere else.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/ndarraytypes.h>
#include <numpy/ufuncobject.h>

/* Python.h defines _GNU_SOURCE, which declares dladdr */
#include <dlfcn.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* boosting._SAFE_LOG and boosting._TINY, the smallest positive normal double */
#define SAFE_LOG 690.0
#define TINY 2.2250738585072014e-308
/* Misses diffnb_scan runs between two checks for a pending signal.
 *
 * A check takes the interpreter lock back, and can wait a switch interval
 * (5 ms) while another thread runs Python, so it is not made every miss;
 * 256 misses of the train-heavy shape (10k rows, K=3, M=20) take 12-15 ms
 * on a 2-vCPU Intel Xeon, so Ctrl-C stops a pass about that soon.
 */
#define SIGNAL_EVERY 256

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

enum { SCORES, WEIGHTS, LOGW, LABELS, CELLS, STARTS, MEMBERS, PATCH, N_SCAN };

static const struct buffer_spec scan_buffers[N_SCAN] = {
    {"scores", 1, 0}, {"weights", 1, 0}, {"logw", 1, 0}, {"labels", 0, 1},
    {"cells", 0, 1}, {"starts", 0, 1}, {"members", 0, 1}, {"patch", 1, 0},
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

/* numpy's float64 loop of a one-input ufunc and the data it is called with */
struct loop {
    PyUFuncGenericFunction function;
    void *data;
};

/* np.exp's and np.log's loops, set once by diffnb_bind */
static struct loop exp_loop, log_loop;

/* ``ufunc``'s NPY_DOUBLE -> NPY_DOUBLE loop, from its type table; 0, or -1 if it has none. */
static int
find_double_loop(PyObject *object, struct loop *found)
{
    if (strcmp(Py_TYPE(object)->tp_name, "numpy.ufunc") != 0)
        return -1;
    const PyUFuncObject *ufunc = (const PyUFuncObject *)object;
    if (ufunc->nin != 1 || ufunc->nout != 1 || ufunc->core_enabled || ufunc->functions == NULL
        || ufunc->types == NULL)
        return -1;
    for (int i = 0; i < ufunc->ntypes; i++) {
        if (ufunc->types[2 * i] == NPY_DOUBLE && ufunc->types[2 * i + 1] == NPY_DOUBLE) {
            found->function = ufunc->functions[i];
            found->data = ufunc->data == NULL ? NULL : ufunc->data[i];
            return found->function == NULL ? -1 : 0;
        }
    }
    return -1;
}

/* Bind np.exp's and np.log's float64 loops; 0, or 1 (nothing bound) if either has none.
 *
 * diffnb.native calls this once, with the ufunc objects, before any pass.
 */
int
diffnb_bind(PyObject *exp_ufunc, PyObject *log_ufunc)
{
    struct loop exp_found, log_found;
    if (find_double_loop(exp_ufunc, &exp_found) < 0 || find_double_loop(log_ufunc, &log_found) < 0)
        return 1;
    exp_loop = exp_found;
    log_loop = log_found;
    return 0;
}

/* 0 if the loops are bound, else -1 with a RuntimeError set */
static int
check_bound(const char *function)
{
    if (exp_loop.function != NULL && log_loop.function != NULL)
        return 0;
    PyErr_Format(PyExc_RuntimeError, "%s: numpy's exp and log loops are not bound", function);
    return -1;
}

/* ``loop`` over ``n`` doubles from ``in`` into ``out``, as a ufunc calls it on contiguous arrays.
 *
 * One call over the whole length, with unit strides. numpy's vector loops
 * take a scalar path where the output overlaps the input, and some numpy
 * versions also where it lies within a vector's width of it; a ufunc
 * call's fresh output lies apart. So callers keep the two arrays
 * SCRATCH_GAP doubles apart.
 */
static void
call_loop(const struct loop *loop, const double *in, double *out, Py_ssize_t n)
{
    char *args[2] = {(char *)in, (char *)out};
    npy_intp dimensions[1] = {n};
    npy_intp steps[2] = {sizeof(double), sizeof(double)};
    loop->function(args, dimensions, steps, loop->data);
}

/* doubles between two scratch arrays: 64 bytes, a vector loop's widest register */
#define SCRATCH_GAP 8

/* Scratch for ``count`` arrays of the lengths in ``n``, SCRATCH_GAP doubles apart; NULL with MemoryError set.
 *
 * Each array's start is stored in ``arrays``; free the first with PyMem_Free.
 */
static double *
scratch(Py_ssize_t count, const Py_ssize_t *n, double **arrays)
{
    Py_ssize_t total = 0;
    for (Py_ssize_t i = 0; i < count; i++)
        total += n[i] + SCRATCH_GAP;
    double *block = PyMem_Malloc(total * sizeof(double));
    if (block == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0, at = 0; i < count; at += n[i] + SCRATCH_GAP, i++)
        arrays[i] = block + at;
    return block;
}

/* The loop bound for ``which``, "exp" or "log"; NULL for another name */
static const struct loop *
named_loop(const char *which)
{
    return strcmp(which, "exp") == 0 ? &exp_loop : strcmp(which, "log") == 0 ? &log_loop : NULL;
}

/* Where the bound "exp" or "log" loop lives, as "library+0xoffset"; None if unbound.
 *
 * numpy's loops are not exported symbols, so the offset in numpy's
 * library names the loop: each dispatch target's loop has its own.
 */
PyObject *
diffnb_bound_loop(const char *which)
{
    const struct loop *loop = named_loop(which);
    Dl_info info;
    if (loop == NULL || loop->function == NULL)
        Py_RETURN_NONE;
    if (dladdr((void *)loop->function, &info) == 0 || info.dli_fname == NULL)
        return PyUnicode_FromFormat("%p", (void *)loop->function);
    const char *slash = strrchr(info.dli_fname, '/');
    /* %p prints the offset in hex, with its 0x */
    return PyUnicode_FromFormat("%s+%p", slash == NULL ? info.dli_fname : slash + 1,
                                (void *)((char *)loop->function - (char *)info.dli_fbase));
}

/* The bound "exp" or "log" loop over a float64 array, into another of its length; 0, or -1 with the Python error set.
 *
 * The values pass through scratch as the passes' do, so the tests compare
 * exactly what a pass computes with numpy's own call.
 */
int
diffnb_apply(const char *which, PyObject *values_obj, PyObject *result_obj)
{
    static const struct buffer_spec specs[2] = {{"values", 0, 0}, {"result", 1, 0}};
    PyObject *const objects[2] = {values_obj, result_obj};
    const struct loop *loop = named_loop(which);
    Py_buffer views[2];
    Py_ssize_t len[2];
    double *arrays[2], *block = NULL;
    int status = -1;
    if (loop == NULL) {
        PyErr_Format(PyExc_ValueError, "apply: no loop named %s", which);
        return -1;
    }
    if (check_bound("apply") < 0 || get_buffers("apply", objects, specs, 2, views, len) < 0)
        return -1;
    if (len[0] != len[1]) {
        PyErr_SetString(PyExc_ValueError, "apply: array lengths disagree");
        goto done;
    }
    if ((block = scratch(2, len, arrays)) == NULL)
        goto done;
    memcpy(arrays[0], views[0].buf, len[0] * sizeof(double));
    call_loop(loop, arrays[0], arrays[1], len[0]);
    memcpy(views[1].buf, arrays[1], len[1] * sizeof(double));
    status = 0;

done:
    PyMem_Free(block);
    release_buffers(views, 2);
    return status;
}

/* A row's K log scores exponentiated into ``out`` as boosting._row_scores takes them.
 *
 * The row's max by '>', subtracted from every score when its magnitude
 * reaches 690; numpy's exp over the K values; the floor at TINY.
 * ``shifted`` is scratch for exp's input, SCRATCH_GAP doubles from ``out``.
 */
static void
exp_row(const double *row, double *shifted, double *out, Py_ssize_t k)
{
    double top = row[0];
    for (Py_ssize_t j = 1; j < k; j++)
        if (row[j] > top)
            top = row[j];
    if (fabs(top) < SAFE_LOG)
        memcpy(shifted, row, k * sizeof(double));
    else
        for (Py_ssize_t j = 0; j < k; j++)
            shifted[j] = row[j] - top;
    call_loop(&exp_loop, shifted, out, k);
    for (Py_ssize_t j = 0; j < k; j++)
        if (TINY > out[j])
            out[j] = TINY;
}

/* One in-order pass over the rows; returns the miss count, or -1 with the Python error set.
 *
 * ``scores`` is the (n, K) running log-score table, ``weights`` and
 * ``logw`` the (K, C) weight and log-weight tables of C cells per class,
 * ``labels`` (n,) and ``cells`` the (n, M) flat cell indices. The rows in
 * cell c are ``members[starts[c]:starts[c + 1]]``, ascending: the index
 * that TrainState.start derives from the cells, and the numpy pass reads
 * too. ``patch`` holds n zeros and is left so. A miss runs exp on the
 * row's K values and log on the boosted class's M weights, the lengths
 * the numpy pass hands np.exp and np.log. The caller checks that every
 * cell index, label and member is in range; this checks lengths, item
 * types and contiguity. The loop runs without the interpreter lock, and
 * takes it back every SIGNAL_EVERY misses to run pending signal handlers.
 */
Py_ssize_t
diffnb_scan(PyObject *scores_obj, PyObject *weights_obj, PyObject *logw_obj,
            PyObject *labels_obj, PyObject *cells_obj, PyObject *starts_obj,
            PyObject *members_obj, PyObject *patch_obj, Py_ssize_t k, Py_ssize_t m, double alpha)
{
    PyObject *const objects[N_SCAN] = {
        scores_obj, weights_obj, logw_obj, labels_obj, cells_obj, starts_obj, members_obj, patch_obj,
    };
    Py_buffer views[N_SCAN];
    Py_ssize_t len[N_SCAN];
    Py_ssize_t misses = -1;
    double *block = NULL;
    if (k < 1 || m < 1) {
        PyErr_SetString(PyExc_ValueError, "sweep: k and m must be >= 1");
        return -1;
    }
    if (check_bound("sweep") < 0 || get_buffers("sweep", objects, scan_buffers, N_SCAN, views, len) < 0)
        return -1;
    const Py_ssize_t n = len[LABELS], c = len[WEIGHTS] / k;
    const int64_t *starts = views[STARTS].buf;
    if (len[SCORES] != n * k || len[CELLS] != n * m || len[WEIGHTS] != k * c || len[LOGW] != k * c
        || len[STARTS] != c + 1 || len[PATCH] != n || len[MEMBERS] != starts[c]) {
        PyErr_SetString(PyExc_ValueError, "sweep: array lengths disagree");
        goto done;
    }
    /* exp's K values in and out, then log's M */
    double *work[4];
    if ((block = scratch(4, (const Py_ssize_t[]){k, k, m, m}, work)) == NULL)
        goto done;
    double *row_in = work[0], *row_out = work[1], *cell_in = work[2], *cell_out = work[3];

    double *scores = views[SCORES].buf, *weights = views[WEIGHTS].buf, *logw = views[LOGW].buf;
    double *patch = views[PATCH].buf;
    const int64_t *labels = views[LABELS].buf, *cells = views[CELLS].buf;
    const int64_t *members = views[MEMBERS].buf;

    Py_ssize_t count = 0;
    PyThreadState *released = PyEval_SaveThread();
    for (Py_ssize_t i = 0; i < n; i++) {
        double *row = scores + i * k;
        const Py_ssize_t label = (Py_ssize_t)labels[i];
        if (argmax(row, k) == label)
            continue;
        /* a pending Ctrl-C or other signal handler runs here, after every
           SIGNAL_EVERY misses, with the lock taken back for it */
        if (++count % SIGNAL_EVERY == 0) {
            PyEval_RestoreThread(released);
            if (PyErr_CheckSignals() < 0)
                goto done;
            released = PyEval_SaveThread();
        }

        exp_row(row, row_in, row_out, k);

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
        call_loop(&log_loop, cell_in, cell_out, m);
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
    PyEval_RestoreThread(released);
    misses = count;

done:
    PyMem_Free(block);
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
 * The loop runs without the interpreter lock.
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
    int bad_cell = 0;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n && !bad_cell; i++) {
        const double *row = values + i * m;
        for (Py_ssize_t t = 0; t < s; t++) {
            const int64_t cell = cells[i * s + t];
            if (cell < 0 || cell >= c) {
                bad_cell = 1;
                break;
            }
            for (Py_ssize_t kk = 0; kk < k; kk++) {
                const Py_ssize_t at = kk * c + cell;
                const double *cell_lo = lo + at * m, *cell_hi = hi + at * m;
                parts[(kk * n + i) * s + t] = outside_window(row, cell_lo, cell_hi, m) ? log_gated[at] : log_base[at];
            }
        }
    }
    Py_END_ALLOW_THREADS
    if (bad_cell) {
        PyErr_SetString(PyExc_ValueError, "score: a cell index lies outside the tables");
        goto done;
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

/* A model's scoring tables, read from their buffers, and a row's work space */
struct scorer {
    Py_ssize_t k, m, c;
    const double *grid_lo, *grid_hi, *width, *top, *lo, *hi, *log_base, *log_gated, *logw;
    const int64_t *offsets;
    double *parts;   /* one row's K x M parts */
    int64_t *cells;  /* its M flat cells */
};

/* Acquire the values and the tables, and the scores if ``count`` is N_LOG_SCORES; 0, or -1 with the Python error set.
 *
 * On success the buffers are held and ``scorer`` reads them, with work
 * space the caller frees with PyMem_Free(scorer->parts); ``n`` is the
 * number of rows.
 */
static int
get_scorer(const char *function, PyObject *arrays, Py_ssize_t count, Py_ssize_t k, Py_ssize_t m,
           Py_buffer *views, struct scorer *scorer, Py_ssize_t *n)
{
    Py_ssize_t len[N_LOG_SCORES];
    if (!PyTuple_Check(arrays) || PyTuple_GET_SIZE(arrays) != count) {
        PyErr_Format(PyExc_TypeError, "%s: arrays must be a tuple of %zd arrays", function, count);
        return -1;
    }
    if (k < 1 || m < 1) {
        PyErr_Format(PyExc_ValueError, "%s: k and m must be >= 1", function);
        return -1;
    }
    if (get_buffers(function, PySequence_Fast_ITEMS(arrays), log_score_buffers, count, views, len) < 0)
        return -1;
    const Py_ssize_t rows = len[L_VALUES] / m, c = len[L_LOG_BASE] / k;
    if (len[L_VALUES] != rows * m || len[L_GRID_LO] != m || len[L_GRID_HI] != m || len[L_WIDTH] != m
        || len[L_TOP] != m || len[L_OFFSETS] != m || len[L_LOG_BASE] != k * c
        || len[L_LOG_GATED] != k * c || len[L_WINDOW_LO] != k * c * m
        || len[L_WINDOW_HI] != k * c * m || len[L_LOGW] != c * k
        || (count > L_SCORES && len[L_SCORES] != rows * k)) {
        PyErr_Format(PyExc_ValueError, "%s: array lengths disagree", function);
        release_buffers(views, count);
        return -1;
    }
    double *work = PyMem_Malloc((k * m + m) * sizeof(double));
    if (work == NULL) {
        PyErr_NoMemory();
        release_buffers(views, count);
        return -1;
    }
    *scorer = (struct scorer){
        .k = k, .m = m, .c = c,
        .grid_lo = views[L_GRID_LO].buf, .grid_hi = views[L_GRID_HI].buf,
        .width = views[L_WIDTH].buf, .top = views[L_TOP].buf,
        .lo = views[L_WINDOW_LO].buf, .hi = views[L_WINDOW_HI].buf,
        .log_base = views[L_LOG_BASE].buf, .log_gated = views[L_LOG_GATED].buf,
        .logw = views[L_LOGW].buf, .offsets = views[L_OFFSETS].buf,
        .parts = work, .cells = (int64_t *)(work + k * m),
    };
    *n = rows;
    return 0;
}

/* One row's K weighted log scores into ``out``; 0, 1 if a value is NaN, or -1 with the Python error set.
 *
 * This is density.likelihood_logs, the sum of its parts and
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
 */
static int
score_row(const struct scorer *s, const double *row, double *out)
{
    const Py_ssize_t k = s->k, m = s->m, c = s->c;
    for (Py_ssize_t j = 0; j < m; j++) {
        const double v = row[j];
        if (v != v)
            return 1;
        double clamped = v < s->grid_lo[j] ? s->grid_lo[j] : v;
        clamped = clamped > s->grid_hi[j] ? s->grid_hi[j] : clamped;
        double raw = (clamped - s->grid_lo[j]) / s->width[j];
        raw = raw > s->top[j] ? s->top[j] : raw;
        const int64_t cell = s->offsets[j] + (int64_t)raw;
        if (cell < 0 || cell >= c) {
            PyErr_SetString(PyExc_ValueError, "log scores: a cell index lies outside the tables");
            return -1;
        }
        s->cells[j] = cell;
    }
    for (Py_ssize_t kk = 0; kk < k; kk++) {
        double *class_parts = s->parts + kk * m;
        for (Py_ssize_t j = 0; j < m; j++) {
            const Py_ssize_t at = kk * c + s->cells[j];
            class_parts[j] = outside_window(row, s->lo + at * m, s->hi + at * m, m) ? s->log_gated[at] : s->log_base[at];
        }
        out[kk] = 0.0 + pairwise_sum(class_parts, m);
    }
    for (Py_ssize_t kk = 0; kk < k; kk++) {
        double weight = 0.0;
        for (Py_ssize_t j = 0; j < m; j++)
            weight += s->logw[s->cells[j] * k + kk];
        out[kk] += weight;
    }
    return 0;
}

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
 * Each row is scored by score_row. A NaN value has no bin: the call stops
 * and returns 1, and the caller takes the rows through BinGrid.bins,
 * which refuses the value by name. Lengths, item types, contiguity and
 * every cell index are checked.
 */
int
diffnb_log_scores(PyObject *arrays, Py_ssize_t k, Py_ssize_t m)
{
    Py_buffer views[N_LOG_SCORES];
    struct scorer scorer;
    Py_ssize_t n;
    int status = 0;
    if (get_scorer("log scores", arrays, N_LOG_SCORES, k, m, views, &scorer, &n) < 0)
        return -1;
    const double *values = views[L_VALUES].buf;
    double *scores = views[L_SCORES].buf;
    for (Py_ssize_t i = 0; i < n && status == 0; i++)
        status = score_row(&scorer, values + i * m, scores + i * k);
    PyMem_Free(scorer.parts);
    release_buffers(views, N_LOG_SCORES);
    return status;
}

/* One row's posterior, as inference.posterior's numpy chain gives it; a new reference, or NULL with the Python error set.
 *
 * ``arrays`` is diffnb_log_scores' tuple without ``scores``, its values
 * one row. Returns (probabilities, winner, tie): a tuple of K floats, an
 * int and a bool. The row's log scores are score_row's; then, as
 * boosting.scores_from_logs and winner_of take one row:
 * - the scores exp_row takes them to, as the sweep does;
 * - their sum as a 1-D ``sum`` takes it, 0.0 plus the pairwise sum, and
 *   each score over the sum;
 * - the winner, the first of equal maximal log scores, and whether
 *   another equals it.
 * Returns None where the numpy chain must decide: a NaN value, which
 * BinGrid.bins refuses by name, or a log score that is not finite, whose
 * warnings and NaN rules numpy's calls keep.
 */
PyObject *
diffnb_posterior(PyObject *arrays, Py_ssize_t k, Py_ssize_t m)
{
    Py_buffer views[N_LOG_SCORES];
    struct scorer scorer;
    Py_ssize_t n;
    PyObject *result = NULL;
    double *block = NULL;
    if (check_bound("posterior") < 0 || get_scorer("posterior", arrays, L_SCORES, k, m, views, &scorer, &n) < 0)
        return NULL;
    /* the log scores, exp's K values in, and out */
    double *work[3];
    if (n != 1) {
        PyErr_SetString(PyExc_ValueError, "posterior: values must hold one row");
        goto done;
    }
    if ((block = scratch(3, (const Py_ssize_t[]){k, k, k}, work)) == NULL)
        goto done;
    double *logs = work[0], *shifted = work[1], *scores = work[2];
    const int status = score_row(&scorer, views[L_VALUES].buf, logs);
    if (status < 0)
        goto done;
    int finite = status == 0;
    for (Py_ssize_t j = 0; j < k; j++)
        finite = finite && isfinite(logs[j]);
    if (!finite) {
        result = Py_NewRef(Py_None);
        goto done;
    }

    const Py_ssize_t winner = argmax(logs, k);
    int ties = 0;
    for (Py_ssize_t j = 0; j < k; j++)
        ties += logs[j] == logs[winner];
    exp_row(logs, shifted, scores, k);
    const double total = 0.0 + pairwise_sum(scores, k);

    PyObject *probabilities = PyTuple_New(k);
    if (probabilities == NULL)
        goto done;
    for (Py_ssize_t j = 0; j < k; j++) {
        PyObject *p = PyFloat_FromDouble(scores[j] / total);
        if (p == NULL) {
            Py_DECREF(probabilities);
            goto done;
        }
        PyTuple_SET_ITEM(probabilities, j, p);
    }
    result = Py_BuildValue("(NnN)", probabilities, winner, PyBool_FromLong(ties > 1));

done:
    PyMem_Free(block);
    PyMem_Free(scorer.parts);
    release_buffers(views, L_SCORES);
    return result;
}


/* How the block parse classes an ASCII byte: str.split's whitespace; the
 * separators 0x1c-0x1f, which str.split also splits on and the pass refuses;
 * and every other byte. */
enum { OTHER, SPACE, REFUSED };

static const unsigned char byte_class[128] = {
    ['\t'] = SPACE, ['\n'] = SPACE, ['\v'] = SPACE, ['\f'] = SPACE, ['\r'] = SPACE, [' '] = SPACE,
    [0x1c] = REFUSED, [0x1d] = REFUSED, [0x1e] = REFUSED, [0x1f] = REFUSED,
};

/* The fields of one ASCII line, as parse_table splits it; the field count, or -1 if the line holds a refused byte.
 *
 * ``delimiter`` -1 splits on runs of whitespace, as str.split(); any other
 * byte strips the line, splits it on that byte and strips each field. The
 * first ``limit`` fields' bounds go to ``starts`` and ``ends``; the count
 * stops one past ``limit``. A blank line has 0 fields.
 */
static Py_ssize_t
split_line(const char *s, Py_ssize_t len, int delimiter, Py_ssize_t limit, Py_ssize_t *starts,
           Py_ssize_t *ends)
{
    Py_ssize_t count = 0, i = 0;
    if (delimiter < 0) {
        while (count <= limit) {
            while (i < len && byte_class[(unsigned char)s[i]] == SPACE)
                i++;
            if (i == len)
                break;
            const Py_ssize_t start = i;
            for (; i < len && byte_class[(unsigned char)s[i]] != SPACE; i++)
                if (byte_class[(unsigned char)s[i]] == REFUSED)
                    return -1;
            if (count < limit) {
                starts[count] = start;
                ends[count] = i;
            }
            count++;
        }
        return count;
    }
    while (len > 0 && byte_class[(unsigned char)s[len - 1]] == SPACE)
        len--;
    while (i < len && byte_class[(unsigned char)s[i]] == SPACE)
        i++;
    if (i == len)
        return 0;
    for (Py_ssize_t start = i; count <= limit; i++) {
        if (i < len && byte_class[(unsigned char)s[i]] == REFUSED)
            return -1;
        if (i < len && s[i] != delimiter)
            continue;
        if (count < limit) {
            Py_ssize_t lo = start, hi = i;
            while (lo < hi && byte_class[(unsigned char)s[lo]] == SPACE)
                lo++;
            while (hi > lo && byte_class[(unsigned char)s[hi - 1]] == SPACE)
                hi--;
            starts[count] = lo;
            ends[count] = hi;
        }
        count++;
        start = i + 1;
        if (i == len)
            break;
    }
    return count;
}

/* 10**0 to 10**22, each exact in a double */
static const double exact_powers[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* float() of a number token; 0, 1 if the pass refuses the token, or -1 with the Python error set.
 *
 * The token must be ``[+-]?(digits[.[digits]]|.digits)([eE][+-]?digits)?``.
 * Its significand read as an integer w and its power of ten e: where
 * w <= 2**53 and |e| <= 22, both are exact doubles and w * 10**e (or
 * w / 10**-e) is one correctly rounded operation (Clinger's fast path).
 * Any other token goes to PyOS_string_to_double, which float() calls. A
 * result that is not finite is refused, as float() gives it and
 * parse_table refuses it.
 */
static int
parse_number(const char *s, Py_ssize_t len, double *out)
{
    const char *p = s, *end = s + len;
    const uint64_t limit = (uint64_t)1 << 53;
    uint64_t w = 0;
    int negative = 0, fast = 1;
    long long digits = 0, e = 0;
    if (p < end && (*p == '+' || *p == '-'))
        negative = *p++ == '-';
    for (int fraction = 0;; p++) {
        if (p < end && *p >= '0' && *p <= '9') {
            if (w > limit / 10)
                fast = 0;
            else
                w = w * 10 + (uint64_t)(*p - '0');
            digits++;
            e -= fraction;
        }
        else if (p < end && *p == '.' && !fraction)
            fraction = 1;
        else
            break;
    }
    if (digits == 0)
        return 1;
    if (p < end && (*p == 'e' || *p == 'E')) {
        long long exponent = 0;
        int exponent_negative = 0;
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            exponent_negative = *p++ == '-';
        const char *first = p;
        for (; p < end && *p >= '0' && *p <= '9'; p++) {
            if (exponent > 100000000)
                fast = 0;
            else
                exponent = exponent * 10 + (*p - '0');
        }
        if (p == first)
            return 1;
        e += exponent_negative ? -exponent : exponent;
    }
    if (p != end)
        return 1;
    if (fast && w <= limit && e >= -22 && e <= 22) {
        const double value = e >= 0 ? (double)w * exact_powers[e] : (double)w / exact_powers[-e];
        *out = negative ? -value : value;
        return 0;
    }
    char small[64], *copy = len < (Py_ssize_t)sizeof small ? small : PyMem_Malloc(len + 1);
    if (copy == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memcpy(copy, s, len);
    copy[len] = '\0';
    char *stop;
    const double value = PyOS_string_to_double(copy, &stop, NULL);
    const int status = value == -1.0 && PyErr_Occurred() ? -1 : stop != copy + len || !isfinite(value);
    if (copy != small)
        PyMem_Free(copy);
    *out = value;
    return status;
}

/* The code ``codes`` maps a token to; a borrowed reference, or NULL, with the Python error set only on an error. */
static PyObject *
token_code(PyObject *codes, const char *s, Py_ssize_t len)
{
    PyObject *token = PyUnicode_DecodeASCII(s, len, NULL);
    if (token == NULL)
        return NULL;
    PyObject *code = PyDict_GetItemWithError(codes, token);
    Py_DECREF(token);
    return code;
}

/* A block of lines parsed into value rows and labels; (rows, dropped), None if the pass refuses the block, or NULL with the Python error set.
 *
 * This is dataset._encode_block for one field count. ``lines`` is the
 * block's list of str; ``delimiter`` None (whitespace runs) or a one-byte
 * str; ``n_fields`` the field count of every non-blank line; ``picks`` the
 * fields read, the M value fields and then, where ``labels`` is not None,
 * the label field. ``codes`` holds, for each pick, None for a number or
 * the dict of its tokens: a discrete attribute's token -> float value, the
 * label's token -> class index. A line holding ``missing`` in a picked
 * field is dropped and counted; every other non-blank line fills the next
 * row of the (len(lines), M) float64 ``values`` and of the int64
 * ``labels``. Numbers are parse_number's.
 *
 * The block is refused, and nothing it wrote is to be read, at a line
 * that is not ASCII or holds a byte 0x1c-0x1f, a line of another field
 * count, a number parse_number refuses, a token its dict lacks, or a
 * delimiter of other than one ASCII character. parse_table then encodes
 * the block in Python, which names any fault.
 */
PyObject *
diffnb_parse_block(PyObject *lines, PyObject *delimiter_obj, Py_ssize_t n_fields, PyObject *picks,
                   PyObject *codes, PyObject *missing_obj, PyObject *values_obj, PyObject *labels_obj)
{
    static const struct buffer_spec specs[2] = {{"values", 1, 0}, {"labels", 1, 1}};
    PyObject *const objects[2] = {values_obj, labels_obj};
    if (!PyList_Check(lines) || !PyTuple_Check(picks) || !PyTuple_Check(codes)
        || PyTuple_GET_SIZE(picks) != PyTuple_GET_SIZE(codes) || !PyUnicode_Check(missing_obj)) {
        PyErr_SetString(PyExc_TypeError,
                        "parse block: lines must be a list, picks and codes tuples of one length, missing a str");
        return NULL;
    }
    int delimiter = -1;
    if (delimiter_obj != Py_None) {
        if (!PyUnicode_Check(delimiter_obj)) {
            PyErr_SetString(PyExc_TypeError, "parse block: delimiter must be None or a str");
            return NULL;
        }
        if (PyUnicode_GET_LENGTH(delimiter_obj) != 1 || !PyUnicode_IS_ASCII(delimiter_obj))
            Py_RETURN_NONE;
        delimiter = PyUnicode_READ_CHAR(delimiter_obj, 0);
    }
    const int labeled = labels_obj != Py_None;
    const Py_ssize_t n_picks = PyTuple_GET_SIZE(picks), m = n_picks - labeled, n = PyList_GET_SIZE(lines);
    /* a token holds no whitespace, so a missing token that does never matches; nor does one not ASCII */
    Py_ssize_t missing_len = -1;
    const char *missing = NULL;
    if (PyUnicode_IS_ASCII(missing_obj))
        missing = PyUnicode_AsUTF8AndSize(missing_obj, &missing_len);
    if (m < 1 || n_fields < 1) {
        PyErr_SetString(PyExc_ValueError, "parse block: need at least one value field");
        return NULL;
    }
    Py_buffer views[2];
    Py_ssize_t len[2];
    if (get_buffers("parse block", objects, specs, 1 + labeled, views, len) < 0)
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t *work = NULL;
    if (len[0] != n * m || (labeled && len[1] != n)) {
        PyErr_SetString(PyExc_ValueError, "parse block: array lengths disagree");
        goto done;
    }
    /* each field's start and end, then each field's pick or -1 */
    if ((work = PyMem_Malloc(3 * n_fields * sizeof(Py_ssize_t))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t *starts = work, *ends = work + n_fields, *pick_of = work + 2 * n_fields;
    for (Py_ssize_t f = 0; f < n_fields; f++)
        pick_of[f] = -1;
    for (Py_ssize_t j = 0; j < n_picks; j++) {
        const Py_ssize_t f = PyLong_AsSsize_t(PyTuple_GET_ITEM(picks, j));
        if (f == -1 && PyErr_Occurred())
            goto done;
        PyObject *code = PyTuple_GET_ITEM(codes, j);
        if (f < 0 || f >= n_fields || pick_of[f] >= 0 || !(code == Py_None ? j < m : PyDict_Check(code))) {
            PyErr_SetString(PyExc_ValueError,
                            "parse block: picks must be distinct fields, codes None or a dict, the label's a dict");
            goto done;
        }
        pick_of[f] = j;
    }
    double *values = views[0].buf;
    int64_t *labels = labeled ? views[1].buf : NULL;
    Py_ssize_t rows = 0, dropped = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *line = PyList_GET_ITEM(lines, i);
        if (!PyUnicode_Check(line)) {
            PyErr_SetString(PyExc_TypeError, "parse block: lines must hold str");
            goto done;
        }
        if (!PyUnicode_IS_ASCII(line))
            goto refuse;
        Py_ssize_t line_len;
        const char *s = PyUnicode_AsUTF8AndSize(line, &line_len);
        if (s == NULL)
            goto done;
        const Py_ssize_t count = split_line(s, line_len, delimiter, n_fields, starts, ends);
        if (count == 0)
            continue;
        if (count != n_fields)
            goto refuse;
        int is_missing = 0;
        for (Py_ssize_t f = 0; f < n_fields && !is_missing; f++)
            is_missing = pick_of[f] >= 0 && ends[f] - starts[f] == missing_len
                         && memcmp(s + starts[f], missing, missing_len) == 0;
        if (is_missing) {
            dropped++;
            continue;
        }
        for (Py_ssize_t f = 0; f < n_fields; f++) {
            const Py_ssize_t j = pick_of[f];
            if (j < 0)
                continue;
            const char *token = s + starts[f];
            const Py_ssize_t token_len = ends[f] - starts[f];
            PyObject *code_of = PyTuple_GET_ITEM(codes, j);
            if (code_of == Py_None) {
                const int status = parse_number(token, token_len, &values[rows * m + j]);
                if (status < 0)
                    goto done;
                if (status > 0)
                    goto refuse;
                continue;
            }
            PyObject *code = token_code(code_of, token, token_len);
            if (code == NULL) {
                if (PyErr_Occurred())
                    goto done;
                goto refuse;
            }
            if (j < m) {
                const double value = PyFloat_AsDouble(code);
                if (value == -1.0 && PyErr_Occurred())
                    goto done;
                values[rows * m + j] = value;
            }
            else {
                const long long label = PyLong_AsLongLong(code);
                if (label == -1 && PyErr_Occurred())
                    goto done;
                labels[rows] = label;
            }
        }
        rows++;
    }
    result = Py_BuildValue("(nn)", rows, dropped);
    goto done;

refuse:
    result = Py_NewRef(Py_None);

done:
    PyMem_Free(work);
    release_buffers(views, 1 + labeled);
    return result;
}
