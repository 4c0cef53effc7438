int main(void) {
    int a;
    int b;
    a = 10;
    b = 1;
    while (a) {
        a = a - b;
    }
    return 0;
}
