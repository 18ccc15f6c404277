// golden: 3mm seed-0 config {'P0': 200, 'P1': 100, 'P2': 40, 'P3': 12, 'P4': 10, 'P5': 2}
// source_key: 1fb456ac60ebbbf29d5caa536a291aa67569825008bfcd825fa831572d0c4752
typedef __INT64_TYPE__ int64_t;
typedef __INT32_TYPE__ int32_t;
typedef __INT16_TYPE__ int16_t;
typedef __INT8_TYPE__ int8_t;
typedef __UINT8_TYPE__ uint8_t;
typedef __SIZE_TYPE__ size_t;
extern void* calloc(size_t, size_t);
extern void free(void*);

static inline int64_t repro_floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
}

static inline int64_t repro_floormod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

void repro_main(double* A, const int64_t* A_shape, double* B, const int64_t* B_shape, double* C, const int64_t* C_shape, double* D, const int64_t* D_shape, double* G, const int64_t* G_shape) {
    (void)A_shape;
    (void)B_shape;
    (void)C_shape;
    (void)D_shape;
    (void)G_shape;
    double* E = (double*)calloc((size_t)320, sizeof(double));
    double* F = (double*)calloc((size_t)480, sizeof(double));
    for (int64_t i_outer = 0; i_outer < 0 + 1; ++i_outer) {
        const int64_t licm11 = (i_outer * 16);
        for (int64_t j_outer = 0; j_outer < 0 + 1; ++j_outer) {
            const int64_t licm2 = licm11;
            const int64_t licm3 = (j_outer * 20);
            for (int64_t i_inner = 0; i_inner < 0 + 16; ++i_inner) {
                const int64_t licm0 = (licm2 + i_inner);
                const int64_t licm1 = licm3;
                for (int64_t j_inner = 0; j_inner < 0 + 20; ++j_inner) {
                    E[(licm0) * 20 + (licm1 + j_inner)] = 0.0;
                }
            }
            const int64_t licm9 = licm11;
            const int64_t licm10 = (j_outer * 20);
            for (int64_t k = 0; k < 0 + 18; ++k) {
                const int64_t licm7 = licm9;
                const int64_t licm8 = licm10;
                for (int64_t i_inner = 0; i_inner < 0 + 16; ++i_inner) {
                    const double licm4 = A[((licm7 + i_inner)) * 18 + k];
                    const int64_t licm5 = (licm7 + i_inner);
                    const int64_t licm6 = licm8;
                    for (int64_t j_inner = 0; j_inner < 0 + 20; ++j_inner) {
                        const int64_t cse0 = (licm6 + j_inner);
                        E[(licm5) * 20 + cse0] = (E[(licm5) * 20 + cse0] + (licm4 * B[(k) * 20 + cse0]));
                    }
                }
            }
        }
    }
    for (int64_t i_outer_1 = 0; i_outer_1 < 0 + 1; ++i_outer_1) {
        const int64_t licm23 = (i_outer_1 * 20);
        for (int64_t j_outer_1 = 0; j_outer_1 < 0 + 2; ++j_outer_1) {
            const int64_t licm14 = licm23;
            const int64_t licm15 = (j_outer_1 * 12);
            for (int64_t i_inner_1 = 0; i_inner_1 < 0 + 20; ++i_inner_1) {
                const int64_t licm12 = (licm14 + i_inner_1);
                const int64_t licm13 = licm15;
                for (int64_t j_inner_1 = 0; j_inner_1 < 0 + 12; ++j_inner_1) {
                    F[(licm12) * 24 + (licm13 + j_inner_1)] = 0.0;
                }
            }
            const int64_t licm21 = licm23;
            const int64_t licm22 = (j_outer_1 * 12);
            for (int64_t l_red = 0; l_red < 0 + 22; ++l_red) {
                const int64_t licm19 = licm21;
                const int64_t licm20 = licm22;
                for (int64_t i_inner_1 = 0; i_inner_1 < 0 + 20; ++i_inner_1) {
                    const double licm16 = C[((licm19 + i_inner_1)) * 22 + l_red];
                    const int64_t licm17 = (licm19 + i_inner_1);
                    const int64_t licm18 = licm20;
                    for (int64_t j_inner_1 = 0; j_inner_1 < 0 + 12; ++j_inner_1) {
                        const int64_t cse1 = (licm18 + j_inner_1);
                        F[(licm17) * 24 + cse1] = (F[(licm17) * 24 + cse1] + (licm16 * D[(l_red) * 24 + cse1]));
                    }
                }
            }
        }
    }
    for (int64_t i_outer_2 = 0; i_outer_2 < 0 + 2; ++i_outer_2) {
        const int64_t licm35 = (i_outer_2 * 10);
        for (int64_t j_outer_2 = 0; j_outer_2 < 0 + 12; ++j_outer_2) {
            const int64_t licm26 = licm35;
            const int64_t licm27 = (j_outer_2 * 2);
            for (int64_t i_inner_2 = 0; i_inner_2 < 0 + 10; ++i_inner_2) {
                if (((licm26 + i_inner_2) < 16)) {
                    const int64_t licm24 = (licm26 + i_inner_2);
                    const int64_t licm25 = licm27;
                    for (int64_t j_inner_2 = 0; j_inner_2 < 0 + 2; ++j_inner_2) {
                        G[(licm24) * 24 + (licm25 + j_inner_2)] = 0.0;
                    }
                }
            }
            const int64_t licm33 = licm35;
            const int64_t licm34 = (j_outer_2 * 2);
            for (int64_t m_red = 0; m_red < 0 + 20; ++m_red) {
                const int64_t licm31 = licm33;
                const int64_t licm32 = licm34;
                for (int64_t i_inner_2 = 0; i_inner_2 < 0 + 10; ++i_inner_2) {
                    if (((licm31 + i_inner_2) < 16)) {
                        const double licm28 = E[((licm31 + i_inner_2)) * 20 + m_red];
                        const int64_t licm29 = (licm31 + i_inner_2);
                        const int64_t licm30 = licm32;
                        for (int64_t j_inner_2 = 0; j_inner_2 < 0 + 2; ++j_inner_2) {
                            const int64_t cse2 = (licm30 + j_inner_2);
                            G[(licm29) * 24 + cse2] = (G[(licm29) * 24 + cse2] + (licm28 * F[(m_red) * 24 + cse2]));
                        }
                    }
                }
            }
        }
    }
    free(F);
    free(E);
}
