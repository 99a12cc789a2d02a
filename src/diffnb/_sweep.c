/* The training sweep's in-order pass, TrainState._scan in boosting.py, as one loop.
 *
 * diffnb.native compiles this file into a shared library and loads it with
 * ctypes.PyDLL, so the function runs holding the interpreter lock and may
 * use the Python C API. It reads the state's arrays through the buffer
 * protocol and calls the exp and log callables it is handed (numpy's
 * ufuncs) on preallocated contiguous arrays of K and M values, so every
 * transcendental bit comes from the same numpy loop, on the same lengths,
 * as the numpy pass. Every other operation is one IEEE operation in the
 * numpy pass's order; built with -ffp-contract=off, none is fused.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

/* boosting._SAFE_LOG and boosting._TINY, the smallest positive normal double */
#define SAFE_LOG 690.0
#define TINY 2.2250738585072014e-308

enum { SCORES, WEIGHTS, LOGW, LABELS, CELLS, STARTS, MEMBERS, PATCH, ROW_IN, ROW_OUT, CELL_IN, CELL_OUT, N_BUFFERS };

static const char *const buffer_names[N_BUFFERS] = {
    "scores", "weights", "logw", "labels", "cells", "starts",
    "members", "patch", "row_in", "row_out", "cell_in", "cell_out",
};

/* which buffers the loop writes, and which hold int64 rather than float64 */
static const int writable[N_BUFFERS] = {1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1};
static const int integral[N_BUFFERS] = {0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0};

/* A C-contiguous buffer of 8-byte items of the kind ``integral`` names; its item count, or -1. */
static Py_ssize_t
get_buffer(PyObject *obj, Py_buffer *view, int i)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable[i] ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *format = view->format ? view->format : "B";
    char kind = format[strlen(format) - 1];
    int ok = view->itemsize == 8 && (integral[i] ? (kind == 'l' || kind == 'q') : kind == 'd');
    if (!ok) {
        PyErr_Format(PyExc_TypeError, "sweep: %s must hold %s", buffer_names[i],
                     integral[i] ? "int64" : "float64");
        PyBuffer_Release(view);
        return -1;
    }
    return view->len / 8;
}

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
    PyObject *objects[N_BUFFERS] = {
        scores_obj, weights_obj, logw_obj, labels_obj, cells_obj, starts_obj,
        members_obj, patch_obj, row_in_obj, row_out_obj, cell_in_obj, cell_out_obj,
    };
    Py_buffer views[N_BUFFERS];
    Py_ssize_t len[N_BUFFERS];
    Py_ssize_t held = 0, misses = -1;
    for (; held < N_BUFFERS; held++) {
        len[held] = get_buffer(objects[held], &views[held], (int)held);
        if (len[held] < 0)
            goto done;
    }
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
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    return misses;
}
