int main(void) {
    int a;
    int b;
    a = 0;
    b = 0;
    if (1) {
        int c;
        int d;
        c = 0;
        d = 1;
    }
    a = 0;
    return 0;
}
