/* Compiled twin of patex._corepy, written against the CPython C API.

   Same algorithms, same candidate order, same node counting: for any valid
   input this backend and the pure-Python one return bit-identical results
   (values, witnesses and node counts).  Keep the two files in sync when
   touching either.

   Marshal layer: every sequence argument (a list, a tuple or any other
   iterable of ints) is copied into C int arrays; a matrix's row-major cell
   indices r * cols + c are read as long long and split into a row and a
   column array.  A value outside its C type raises OverflowError instead
   of wrapping.  A pattern letter below 0, or a cell index outside
   [0, rows * cols), raises ValueError: those values index the search's
   own arrays.  A node budget beyond long long is clamped, so it acts like
   the unbounded Python int of the pure backend. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

#define OK 0
#define BUDGET_EXCEEDED 1

/* ---- marshal ---- */

/* Store the Python int obj in *out if it lies in [lo, hi].  A value outside
   [-tmax - 1, tmax], the C type it goes into, raises OverflowError. */
static int
as_llong(PyObject *obj, long long lo, long long hi, long long tmax, const char *what, long long *out)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.100s", what, Py_TYPE(obj)->tp_name);
        return -1;
    }
    *out = PyLong_AsLongLong(obj);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (*out < -tmax - 1 || *out > tmax) {
        PyErr_Format(PyExc_OverflowError, "%s %lld does not fit in a C int", what, *out);
        return -1;
    }
    if (*out < lo || *out > hi) {
        PyErr_Format(PyExc_ValueError, "%s %lld outside [%lld, %lld]", what, *out, lo, hi);
        return -1;
    }
    return 0;
}

static int
as_int(PyObject *obj, long lo, long hi, const char *what, int *out)
{
    long long x;
    if (as_llong(obj, lo, hi, INT_MAX, what, &x) < 0)
        return -1;
    *out = (int)x;
    return 0;
}

/* Copy the ints of obj, each in [lo, hi], into a new PyMem array of *len
   entries.  With col_out set they are row-major cell indices r * cols + c,
   read as long long: the array gets each r, and a second new array, which
   is *col_out's even on failure, each c.  Only exact ints are read, so no
   Python code runs while the borrowed item array is in use. */
static int *
to_ints(PyObject *obj, long long lo, long long hi, const char *what, int *len, int cols, int **col_out)
{
    PyObject *fast = PySequence_Fast(obj, "expected a sequence of ints");
    int *out = NULL;
    Py_ssize_t n, i;
    long long x;
    if (fast == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    if (n > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "sequence longer than a C int can index");
        goto done;
    }
    if ((out = PyMem_Malloc(n * sizeof(int))) == NULL
        || (col_out && (*col_out = PyMem_Malloc(n * sizeof(int))) == NULL)) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < n; i++) {
        if (as_llong(PySequence_Fast_GET_ITEM(fast, i), lo, hi, col_out ? LLONG_MAX : INT_MAX, what, &x) < 0)
            goto fail;
        out[i] = (int)(col_out ? x / cols : x);
        if (col_out)
            (*col_out)[i] = (int)(x % cols);
    }
    *len = (int)n;
    goto done;
fail:
    PyMem_Free(out);
    out = NULL;
done:
    Py_DECREF(fast);
    return out;
}

/* A zero-filled scratch array of n ints.  Maps are reset to -1 ("unmapped")
   with memset(p, -1, ...), which sets every byte and so every int to -1. */
static int *
scratch(Py_ssize_t n)
{
    int *p = PyMem_Calloc(n, sizeof(int));
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

/* a[0..n) as a new tuple, or as a new list when as_list is set. */
static PyObject *
int_seq(const int *a, int n, int as_list)
{
    PyObject *seq = as_list ? PyList_New(n) : PyTuple_New(n);
    if (seq == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *x = PyLong_FromLong(a[i]);
        if (x == NULL) {
            Py_DECREF(seq);
            return NULL;
        }
        if (as_list)
            PyList_SET_ITEM(seq, i, x);
        else
            PyTuple_SET_ITEM(seq, i, x);
    }
    return seq;
}

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

static int
to_budget(PyObject *obj, long long *out)
{
    int overflow;
    long long b = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (b == -1 && PyErr_Occurred())
        return -1;
    *out = overflow > 0 ? LLONG_MAX : overflow < 0 ? LLONG_MIN : b;
    return 0;
}

/* ---- keep/drop branch and bound, shared by lss_search and lsm_search ---- */

typedef struct Search {
    int n;               /* host elements */
    int *sel, *best_sel; /* kept element indices */
    int best, status;
    long long nodes, budget;
} Search;

/* Depth first over keep/drop decisions: the keep branch, taken when
   creates(s, i, k) says keeping element i as the k-th kept one completes
   no occurrence, before the drop branch; one node per visited (i, k), cut
   when kept + remaining cannot beat the best.  The visiting order is that
   of the recursive rec() in _corepy, without its C-stack depth: the levels
   whose drop branch is still pending are exactly the kept ones, sel[0..k),
   so backtracking resumes at the drop branch of sel[k - 1]. */
static void
keep_drop(Search *s, int (*creates)(Search *, int i, int k))
{
    int n = s->n, i = 0, k = 0;
    for (;;) {
        if (++s->nodes > s->budget) {
            s->status = BUDGET_EXCEEDED;
            return;
        }
        if (i < n && k + (n - i) > s->best) {
            if (!creates(s, i, k))
                s->sel[k++] = i;
            i++;
            continue;
        }
        if (i == n && k > s->best) {
            s->best = k;
            memcpy(s->best_sel, s->sel, k * sizeof(int));
        }
        if (k == 0)
            return;
        i = s->sel[--k] + 1;
    }
}

static int
search_alloc(Search *s, int n, PyObject *budget)
{
    s->n = n;
    s->best = -1;
    if (to_budget(budget, &s->budget) < 0)
        return -1;
    return (s->sel = scratch(n)) && (s->best_sel = scratch(n)) ? 0 : -1;
}

static void
search_free(Search *s)
{
    PyMem_Free(s->sel);
    PyMem_Free(s->best_sel);
}

/* (status, value, kept indices, nodes) */
static PyObject *
search_result(Search *s)
{
    return Py_BuildValue("(iiNL)", s->status, s->best,
                         int_seq(s->best_sel, s->best > 0 ? s->best : 0, 0), s->nodes);
}

/* ---- sequence pattern search ---- */

/* An occurrence search of pattern v[0..t) in host u[0..n) under the letter
   map vmap (pattern letter -> host letter, -1 unmapped, r entries). */
typedef struct {
    const int *u, *v;
    int n, t, r;
    int *vmap, *pos;
} SeqMatch;

/* Lexicographically smallest placement of v[j..t) in u[start..n) that
   extends vmap injectively.  Fills pos[j..t) and returns 1, or returns 0
   with vmap as given.  Recursion depth is the pattern length. */
static int
seq_match(const SeqMatch *c, int j, int start)
{
    const int *u = c->u;
    int *vmap = c->vmap, r = c->r, x;
    if (j == c->t)
        return 1;
    x = c->v[j];
    for (int p = start, end = c->n - (c->t - 1 - j); p < end; p++) {
        int a = u[p], m = vmap[x], q;
        if (m == a) {
            c->pos[j] = p;
            if (seq_match(c, j + 1, p + 1))
                return 1;
        } else if (m == -1) {
            for (q = 0; q < r && vmap[q] != a; q++)
                ;
            if (q == r) {
                vmap[x] = a;
                c->pos[j] = p;
                if (seq_match(c, j + 1, p + 1))
                    return 1;
                vmap[x] = -1;
            }
        }
    }
    return 0;
}

/* Size of the letter map of pattern v: its largest letter plus one, which
   for a normalized pattern is at most its length. */
static int
map_size(const int *v, int t)
{
    int r = 0;
    for (int j = 0; j < t; j++)
        if (v[j] >= r)
            r = v[j] + 1;
    if (r <= t)
        return r;
    PyErr_SetString(PyExc_ValueError, "pattern letters must be below the pattern length");
    return -1;
}

static PyObject *
seq_find(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    SeqMatch c = {0};
    int *u = NULL, *v = NULL;
    PyObject *res = NULL;
    if (check_nargs("seq_find", nargs, 2) < 0
        || (c.u = u = to_ints(args[0], INT_MIN, INT_MAX, "host letter", &c.n, 0, NULL)) == NULL
        || (c.v = v = to_ints(args[1], 0, INT_MAX - 1, "pattern letter", &c.t, 0, NULL)) == NULL)
        goto done;
    if (c.t == 0) {
        res = PyList_New(0);
        goto done;
    }
    if (c.t > c.n) {
        res = Py_NewRef(Py_None);
        goto done;
    }
    if ((c.r = map_size(v, c.t)) < 0 || (c.vmap = scratch(c.r)) == NULL || (c.pos = scratch(c.t)) == NULL)
        goto done;
    memset(c.vmap, -1, c.r * sizeof(int));
    res = seq_match(&c, 0, 0) ? int_seq(c.pos, c.t, 1) : Py_NewRef(Py_None);
done:
    PyMem_Free(u);
    PyMem_Free(v);
    PyMem_Free(c.vmap);
    PyMem_Free(c.pos);
    return res;
}

typedef struct {
    Search s;
    int *u, *v, t;
    int *kept; /* kept letters */
    SeqMatch m; /* v[0..t-1) into kept[0..k) */
} Lss;

/* Keeping u[i] as kept[k]: the kept prefix is v-free, so a new occurrence
   maps v's last letter onto u[i] and the rest of v into kept[0..k). */
static int
lss_creates(Search *s, int i, int k)
{
    Lss *L = (Lss *)s;
    L->kept[k] = L->u[i];
    if (L->t > k + 1)
        return 0;
    for (int q = 0; q < L->m.r; q++) /* not memset: r is tiny, and this runs per node */
        L->m.vmap[q] = -1;
    L->m.vmap[L->v[L->t - 1]] = L->u[i];
    L->m.n = k;
    return seq_match(&L->m, 0, 0);
}

static PyObject *
lss_search(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Lss L = {{0}};
    int n;
    PyObject *res = NULL;
    if (check_nargs("lss_search", nargs, 3) < 0
        || (L.u = to_ints(args[0], INT_MIN, INT_MAX, "host letter", &n, 0, NULL)) == NULL
        || (L.v = to_ints(args[1], 0, INT_MAX - 1, "pattern letter", &L.t, 0, NULL)) == NULL)
        goto done;
    if (L.t == 0) {
        PyErr_SetString(PyExc_ValueError, "pattern must be nonempty");
        goto done;
    }
    if ((L.m.r = map_size(L.v, L.t)) < 0 || search_alloc(&L.s, n, args[2]) < 0
        || (L.kept = scratch(n)) == NULL || (L.m.vmap = scratch(L.m.r)) == NULL
        || (L.m.pos = scratch(L.t)) == NULL)
        goto done;
    L.m.u = L.kept;
    L.m.v = L.v;
    L.m.t = L.t - 1;
    keep_drop(&L.s, lss_creates);
    res = search_result(&L.s);
done:
    search_free(&L.s);
    PyMem_Free(L.u);
    PyMem_Free(L.v);
    PyMem_Free(L.kept);
    PyMem_Free(L.m.vmap);
    PyMem_Free(L.m.pos);
    return res;
}

/* ---- matrix pattern search ---- */

typedef struct {
    int ar, ac, na, pr, pc, np;
    int *arows, *acols, *prows, *pcols; /* ones of A and P, row-major */
    int *rowmap, *colmap;               /* P row/col -> A row/col, -1 unmapped */
} Mat;

/* Parse (ar, ac, acells, pr, pc, pcells) and allocate the maps. */
static int
mat_parse(PyObject *const *args, Mat *m)
{
    if (as_int(args[0], 0, INT_MAX, "host rows", &m->ar) < 0
        || as_int(args[1], 0, INT_MAX, "host columns", &m->ac) < 0
        || as_int(args[3], 0, INT_MAX, "pattern rows", &m->pr) < 0
        || as_int(args[4], 0, INT_MAX, "pattern columns", &m->pc) < 0
        || (m->arows = to_ints(args[2], 0, (long long)m->ar * m->ac - 1, "host cell", &m->na, m->ac,
                               &m->acols)) == NULL
        || (m->prows = to_ints(args[5], 0, (long long)m->pr * m->pc - 1, "pattern cell", &m->np, m->pc,
                               &m->pcols)) == NULL
        || (m->rowmap = scratch(m->pr)) == NULL || (m->colmap = scratch(m->pc)) == NULL)
        return -1;
    memset(m->rowmap, -1, m->pr * sizeof(int));
    memset(m->colmap, -1, m->pc * sizeof(int));
    return 0;
}

static void
mat_free(Mat *m)
{
    PyMem_Free(m->arows);
    PyMem_Free(m->acols);
    PyMem_Free(m->prows);
    PyMem_Free(m->pcols);
    PyMem_Free(m->rowmap);
    PyMem_Free(m->colmap);
}

/* Feasible host interval [*lo, *hi] for unmapped pattern index a, given the
   mapped entries of map (cnt pattern indices into size host indices). */
static void
interval(const int *map, int cnt, int a, int size, int *lo_out, int *hi_out)
{
    int lo = a, hi = size - 1 - (cnt - 1 - a);
    for (int a2 = 0; a2 < cnt; a2++) {
        int i2 = map[a2];
        if (i2 < 0)
            continue;
        if (a2 < a && i2 + (a - a2) > lo)
            lo = i2 + (a - a2);
        else if (a2 > a && i2 - (a2 - a) < hi)
            hi = i2 - (a2 - a);
    }
    *lo_out = lo;
    *hi_out = hi;
}

static int
bisect_left(const int *xs, int target, int lo, int hi)
{
    while (lo < hi) {
        int mid = lo + (hi - lo) / 2;
        if (xs[mid] < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Map P's ones k.. onto A's ones, rows through the CSR index row_ptr. */
static int
mat_find_rec(Mat *m, const int *row_ptr, int k)
{
    int a, b, rlo, rhi, clo, chi;
    if (k == m->np)
        return 1;
    a = m->prows[k];
    b = m->pcols[k];
    if (m->rowmap[a] >= 0)
        rlo = rhi = m->rowmap[a];
    else
        interval(m->rowmap, m->pr, a, m->ar, &rlo, &rhi);
    for (int i = rlo; i <= rhi; i++) {
        int idx = row_ptr[i], end = row_ptr[i + 1], new_row;
        if (idx == end)
            continue;
        if (m->colmap[b] >= 0)
            clo = chi = m->colmap[b];
        else
            interval(m->colmap, m->pc, b, m->ac, &clo, &chi);
        if (clo > chi)
            continue;
        new_row = m->rowmap[a] < 0;
        for (idx = bisect_left(m->acols, clo, idx, end); idx < end && m->acols[idx] <= chi; idx++) {
            int new_col = m->colmap[b] < 0;
            m->rowmap[a] = i;
            m->colmap[b] = m->acols[idx];
            if (mat_find_rec(m, row_ptr, k + 1))
                return 1;
            if (new_col)
                m->colmap[b] = -1;
            if (new_row)
                m->rowmap[a] = -1;
        }
    }
    return 0;
}

/* Place unmapped indices greedily in the gaps; the interval constraints
   kept during the search guarantee this fits. */
static void
complete_map(int *map, int cnt)
{
    int cur = -1;
    for (int a = 0; a < cnt; a++)
        map[a] = map[a] >= 0 ? (cur = map[a]) : ++cur;
}

static PyObject *
mat_find(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Mat m = {0};
    int *row_ptr = NULL;
    PyObject *res = NULL, *rows, *cols;
    if (check_nargs("mat_find", nargs, 6) < 0 || mat_parse(args, &m) < 0)
        goto done;
    if (m.np > m.na || m.pr > m.ar || m.pc > m.ac) {
        res = Py_NewRef(Py_None);
        goto done;
    }
    if ((row_ptr = scratch((Py_ssize_t)m.ar + 1)) == NULL)
        goto done;
    for (int i = 0; i < m.na; i++)
        row_ptr[m.arows[i] + 1]++;
    for (int i = 0; i < m.ar; i++)
        row_ptr[i + 1] += row_ptr[i];
    if (!mat_find_rec(&m, row_ptr, 0)) {
        res = Py_NewRef(Py_None);
        goto done;
    }
    complete_map(m.rowmap, m.pr);
    complete_map(m.colmap, m.pc);
    rows = int_seq(m.rowmap, m.pr, 0);
    cols = rows ? int_seq(m.colmap, m.pc, 0) : NULL;
    if (cols != NULL)
        res = Py_BuildValue("(NN)", rows, cols);
    else
        Py_XDECREF(rows);
done:
    mat_free(&m);
    PyMem_Free(row_ptr);
    return res;
}

typedef struct {
    Search s;
    Mat m;
    int *keep_r, *keep_c; /* kept cells, row-major */
} Lsm;

/* Map P's ones k..np-2 onto kept cells start.. of keep_r/keep_c[0..kc). */
static int
mat_creates_rec(Lsm *L, int kc, int k, int start)
{
    Mat *m = &L->m;
    int a, b, lo, hi;
    if (k == m->np - 1)
        return 1;
    a = m->prows[k];
    b = m->pcols[k];
    for (int e = start; e < kc - 1 - (m->np - 2 - k); e++) {
        int i = L->keep_r[e], j = L->keep_c[e], new_row, new_col;
        if (m->rowmap[a] >= 0) {
            if (i != m->rowmap[a])
                continue;
            new_row = 0;
        } else {
            interval(m->rowmap, m->pr, a, m->ar, &lo, &hi);
            if (i < lo || i > hi)
                continue;
            new_row = 1;
        }
        if (m->colmap[b] >= 0) {
            if (j != m->colmap[b])
                continue;
            new_col = 0;
        } else {
            interval(m->colmap, m->pc, b, m->ac, &lo, &hi);
            if (j < lo || j > hi)
                continue;
            new_col = 1;
        }
        m->rowmap[a] = i;
        m->colmap[b] = j;
        if (mat_creates_rec(L, kc, k + 1, e + 1))
            return 1;
        if (new_row)
            m->rowmap[a] = -1;
        if (new_col)
            m->colmap[b] = -1;
    }
    return 0;
}

/* Keeping A's one i as the k-th kept cell: the kept prefix is P-free, so a
   new occurrence maps P's row-major-last one onto it and the rest of P's
   ones onto earlier kept cells in increasing order. */
static int
lsm_creates(Search *s, int i, int k)
{
    Lsm *L = (Lsm *)s;
    Mat *m = &L->m;
    int al = m->prows[m->np - 1], bl = m->pcols[m->np - 1];
    int ri = m->arows[i], ci = m->acols[i];
    L->keep_r[k] = ri;
    L->keep_c[k] = ci;
    if (m->np > k + 1)
        return 0;
    if (ri < al || (m->ar - 1 - ri) < (m->pr - 1 - al) || ci < bl || (m->ac - 1 - ci) < (m->pc - 1 - bl))
        return 0;
    memset(m->rowmap, -1, m->pr * sizeof(int));
    memset(m->colmap, -1, m->pc * sizeof(int));
    m->rowmap[al] = ri;
    m->colmap[bl] = ci;
    return mat_creates_rec(L, k + 1, 0, 0);
}

static PyObject *
lsm_search(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Lsm L = {{0}};
    PyObject *res = NULL;
    if (check_nargs("lsm_search", nargs, 7) < 0 || mat_parse(args, &L.m) < 0)
        goto done;
    if (L.m.np == 0) {
        PyErr_SetString(PyExc_ValueError, "pattern must have at least one one");
        goto done;
    }
    if (search_alloc(&L.s, L.m.na, args[6]) < 0 || (L.keep_r = scratch(L.m.na)) == NULL
        || (L.keep_c = scratch(L.m.na)) == NULL)
        goto done;
    keep_drop(&L.s, lsm_creates);
    res = search_result(&L.s);
done:
    search_free(&L.s);
    mat_free(&L.m);
    PyMem_Free(L.keep_r);
    PyMem_Free(L.keep_c);
    return res;
}

/* ---- module ---- */

#define METHOD(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef corec_methods[] = {
    METHOD(seq_find, "seq_find(u, v)\n--\n\nSmallest occurrence of v in u as a position list, or None."),
    METHOD(lss_search, "lss_search(u, v, budget)\n--\n\n(status, value, positions, nodes) of the "
                       "longest v-free subsequence of u."),
    METHOD(mat_find, "mat_find(ar, ac, acells, pr, pc, pcells)\n--\n\nFirst "
                     "occurrence of P in A as (row tuple, column tuple), or None."),
    METHOD(lsm_search, "lsm_search(ar, ac, acells, pr, pc, pcells, budget)\n--\n\n"
                       "(status, value, kept indices, nodes) of the most ones of A avoiding P."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef corec_module = {
    PyModuleDef_HEAD_INIT, "_corec", "Compiled search kernels, twin of patex._corepy.", -1,
    corec_methods,
};

PyMODINIT_FUNC
PyInit__corec(void)
{
    PyObject *mod = PyModule_Create(&corec_module);
    if (mod != NULL
        && (PyModule_AddStringConstant(mod, "BACKEND", "c") < 0
            || PyModule_AddIntConstant(mod, "OK", OK) < 0
            || PyModule_AddIntConstant(mod, "BUDGET_EXCEEDED", BUDGET_EXCEEDED) < 0))
        Py_CLEAR(mod);
    return mod;
}
